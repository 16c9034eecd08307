"""Failure-injection tests.

A distributed testbed lives with partial failures: smart plugs drop off
WiFi, monitors trip, ADB transports disappear mid-script, certificates
expire, devices run flat.  These tests inject those faults and check the
platform degrades the way an operator would expect (clear errors, no
corrupted state, measurements still stoppable).
"""

import pytest

from repro.accessserver.jobs import JobConstraints, JobSpec, JobStatus
from repro.automation.channels import AdbAutomation, AutomationError
from repro.core.api import BatteryLabAPIError
from repro.core.session import MeasurementSession
from repro.device.adb import AdbTransportUnavailable, AdbTransport
from repro.network.ssh import SshAuthenticationError
from repro.vantagepoint.power_socket import PowerSocketError
from repro.network.web import NEWS_SITES


class TestPowerFailures:
    def test_unreachable_power_socket_blocks_measurement(self, platform, vantage_point):
        vantage_point.power_socket.set_reachable(False)
        api = platform.api()
        with pytest.raises(PowerSocketError):
            api.power_monitor()

    def test_monitor_power_cut_mid_measurement(self, platform, vantage_point):
        """Cutting mains mid-run aborts sampling but leaves a usable partial trace."""
        api = platform.api()
        device_id = api.list_devices()[0]
        api.power_monitor()
        api.start_monitor(device_id)
        platform.run_for(10.0)
        vantage_point.power_socket.turn_off()
        assert not vantage_point.monitor.sampling
        partial = vantage_point.monitor.last_trace()
        assert partial is not None and len(partial) > 0
        # The API can no longer stop a measurement that the power cut ended.
        with pytest.raises(Exception):
            api.stop_monitor()
        # The device can be returned to its battery manually.
        vantage_point.controller.batt_switch(device_id, bypass=False)

    def test_overcurrent_trip_requires_power_cycle(self, platform, vantage_point):
        monitor = vantage_point.monitor
        vantage_point.power_socket.turn_on()
        monitor.set_vout(3.85)
        monitor.attach_load(lambda: 9000.0, label="short-circuit")
        monitor.start_sampling()
        platform.run_for(1.0)
        monitor.stop_sampling()
        assert monitor.tripped
        vantage_point.power_socket.turn_off()
        vantage_point.power_socket.turn_on()
        assert not monitor.tripped
        monitor.set_vout(3.85)

    def test_flat_device_battery_reads_zero_level(self, platform, vantage_point):
        device = vantage_point.device()
        device.battery.drain(device.battery.charge_mah * 3600.0, 1.0)
        assert device.battery.level == 0.0
        status = device.dumpsys_battery()
        assert status["level"] == 0.0


class TestConnectivityFailures:
    def test_adb_transport_drops_mid_script(self, platform, vantage_point):
        controller = vantage_point.controller
        device = vantage_point.device()
        channel = AdbAutomation(controller, device.serial, AdbTransport.WIFI)
        channel.open_url("com.android.chrome", NEWS_SITES[0].url)
        # The AP goes away (e.g. hostapd crash): further commands fail cleanly.
        controller.wifi_ap.disassociate(device)
        with pytest.raises(AutomationError):
            channel.scroll_down()
        # Reassociating restores the channel.
        controller.wifi_ap.associate(device)
        channel.scroll_down()

    def test_usb_power_off_kills_usb_adb(self, platform, vantage_point):
        controller = vantage_point.controller
        device = vantage_point.device()
        server = controller.adb_server(device.serial)
        assert server.transport_available(AdbTransport.USB)
        controller.set_device_usb_power(device.serial, False)
        with pytest.raises(AdbTransportUnavailable):
            server.connect(AdbTransport.USB)

    def test_ssh_from_unknown_address_rejected(self, platform, vantage_point):
        server = platform.access_server
        record = server.accounts.vantage_point("node1")
        with pytest.raises(SshAuthenticationError):
            record.controller.ssh_server.open_channel(server.ssh_key, "203.0.113.99")

    def test_job_failure_releases_the_device(self, platform):
        """A crashing job must not leave its device slot busy."""
        server = platform.access_server

        def crash(ctx):
            ctx.api.power_monitor()
            ctx.api.set_voltage(3.85)
            ctx.api.start_monitor(ctx.api.list_devices()[0])
            raise RuntimeError("script bug")

        job = server.submit_job(
            platform.experimenter, JobSpec(name="crasher", owner="experimenter", run=crash)
        )
        server.run_pending_jobs()
        assert job.status is JobStatus.FAILED
        assert not server.scheduler.slots.is_busy("node1", "node1-dev00")
        # The next job can still be dispatched and run.
        ok = server.submit_job(
            platform.experimenter,
            JobSpec(name="recovery", owner="experimenter", run=lambda ctx: "ok"),
        )
        server.run_pending_jobs()
        assert ok.status is JobStatus.COMPLETED


class TestMeasurementHygiene:
    def test_session_stop_always_restores_device(self, platform, vantage_point):
        controller = vantage_point.controller
        device = vantage_point.device()
        session = MeasurementSession(controller, device.serial, mirroring=True)
        with session:
            platform.run_for(5.0)
        assert device.battery.connection.value == "internal"
        assert device.usb_powered
        assert not device.mirroring_active

    def test_api_refuses_second_measurement_until_first_stopped(self, platform):
        api = platform.api()
        device_id = api.list_devices()[0]
        api.power_monitor()
        api.start_monitor(device_id)
        with pytest.raises(BatteryLabAPIError):
            api.measure(device_id, duration=5.0)
        trace = api.stop_monitor()
        assert trace is not None

    def test_crashed_payload_leaves_no_measurement_running(self, platform, vantage_point):
        server = platform.access_server

        def crash(ctx):
            ctx.api.power_monitor()
            ctx.api.start_monitor(ctx.api.list_devices()[0])
            raise RuntimeError("script bug")

        crashed = server.submit_job(
            platform.experimenter, JobSpec(name="crasher", owner="experimenter", run=crash)
        )
        server.run_pending_jobs()
        assert crashed.status is JobStatus.FAILED
        device = vantage_point.device()
        assert not vantage_point.monitor.sampling
        assert device.battery.connection.value == "internal"
        assert device.usb_powered
        measuring = server.submit_job(
            platform.experimenter,
            JobSpec(
                name="measure",
                owner="experimenter",
                run=lambda ctx: ctx.api.measure(ctx.api.list_devices()[0], 5.0).median_current_ma(),
            ),
        )
        server.run_pending_jobs()
        assert measuring.status is JobStatus.COMPLETED

    def test_power_cut_during_api_measure_restores_the_device(self, platform, vantage_point):
        api = platform.api()
        device_id = api.list_devices()[0]
        api.power_monitor()
        platform.context.scheduler.schedule_in(5.0, vantage_point.power_socket.turn_off)
        with pytest.raises(Exception):
            api.measure(device_id, 10.0)
        device = vantage_point.device()
        assert device.battery.connection.value == "internal"
        assert device.usb_powered
        assert not api.measuring
        api.power_monitor()
        assert len(api.measure(device_id, 5.0)) > 0

    def test_power_cut_during_session_measure_restores_the_device(self, platform, vantage_point):
        device = vantage_point.device()
        session = MeasurementSession(vantage_point.controller, device.serial, mirroring=True)
        platform.context.scheduler.schedule_in(5.0, vantage_point.power_socket.turn_off)
        with pytest.raises(Exception):
            session.measure(10.0)
        assert not session.active
        assert device.battery.connection.value == "internal"
        assert device.usb_powered
        assert not device.mirroring_active

    def test_crashed_payload_stops_the_mirroring_it_started(self, platform, vantage_point):
        server = platform.access_server

        def crash(ctx):
            ctx.api.device_mirroring(ctx.api.list_devices()[0])
            raise RuntimeError("script bug")

        crashed = server.submit_job(
            platform.experimenter, JobSpec(name="crasher", owner="experimenter", run=crash)
        )
        server.run_pending_jobs()
        assert crashed.status is JobStatus.FAILED
        assert not vantage_point.device().mirroring_active
        platform.run_for(5.0)
        # The "low CPU utilization" constraint (Section 4.2) reads the
        # controller's latest CPU sample; mirroring left on holds it high.
        gated = server.submit_job(
            platform.experimenter,
            JobSpec(
                name="low-cpu",
                owner="experimenter",
                run=lambda ctx: "ok",
                constraints=JobConstraints(
                    require_low_controller_cpu=True, max_controller_cpu_percent=10.0
                ),
            ),
        )
        server.run_pending_jobs()
        assert gated.status is JobStatus.COMPLETED

    def test_expired_workspaces_are_purged(self, platform):
        from repro.accessserver.maintenance import build_workspace_cleanup_job

        server = platform.access_server
        job = server.submit_job(
            platform.experimenter,
            JobSpec(
                name="short-retention",
                owner="experimenter",
                run=lambda ctx: ctx.store_artifact("blob", b"x" * 10),
                log_retention_days=0.001,
            ),
        )
        server.run_pending_jobs()
        assert job.workspace.names()
        platform.run_for(200.0)
        cleanup = server.submit_job(platform.admin, build_workspace_cleanup_job(server))
        server.run_pending_jobs()
        assert cleanup.status is JobStatus.COMPLETED
        assert job.job_id in cleanup.result["purged_jobs"]
        assert job.workspace.artifacts == {}
