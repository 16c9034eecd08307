"""End-to-end integration tests: the full experimenter workflow of the paper.

These walk the paths Section 3/4 describe: an experimenter authenticates at
the access server, submits a job, the scheduler dispatches it onto the
vantage point, the job drives the device via the BatteryLab API and the ADB
automation channel, collects a power trace, and the logs land in the job's
workspace.
"""

import pytest

from repro.accessserver.jobs import JobConstraints, JobSpec, JobStatus
from repro.automation.channels import AdbAutomation
from repro.automation.scripts import BrowserAutomationScript
from repro.core.session import MeasurementSession
from repro.network.web import NEWS_SITES
from repro.workloads.browsers import browser_profile


class TestExperimenterWorkflow:
    def test_browser_energy_job_end_to_end(self, platform, vantage_point):
        """The paper's demonstration, driven entirely through the access server."""
        server = platform.access_server
        experimenter = server.users.authenticate("experimenter", "experimenter-token")

        def browser_energy_job(ctx):
            api = ctx.api
            device_id = ctx.device_serial
            controller = api.controller
            channel = AdbAutomation(controller, device_id)
            script = BrowserAutomationScript(
                channel,
                browser_profile("chrome"),
                controller.context,
                urls=[page.url for page in NEWS_SITES[:2]],
                dwell_s=2.0,
                scrolls_per_page=2,
                scroll_interval_s=1.0,
            )
            vantage_point.monitor.set_sample_rate(100.0)
            script.prepare()
            session = MeasurementSession(controller, device_id, mirroring=False, label="job")
            session.start()
            stats = script.run_iteration()
            result = session.stop()
            ctx.log(f"loaded {stats.pages_loaded} pages")
            ctx.store_artifact("discharge_mah", result.discharge_mah())
            return {"discharge_mah": result.discharge_mah(), "pages": stats.pages_loaded}

        spec = JobSpec(
            name="chrome-energy",
            owner=experimenter.username,
            run=browser_energy_job,
            constraints=JobConstraints(vantage_point="node1"),
        )
        job = server.submit_job(experimenter, spec)
        executed = server.run_pending_jobs()
        assert executed == [job]
        assert job.status is JobStatus.COMPLETED
        assert job.result["pages"] == 2
        assert job.result["discharge_mah"] > 0
        assert job.workspace.fetch("discharge_mah") == job.result["discharge_mah"]
        assert "power_meter_trace" in job.workspace.names()
        assert any("loaded 2 pages" in line for line in job.log_lines)

    def test_remote_control_session_with_tester(self, platform, vantage_point):
        """Usability-testing flow: mirroring shared with a recruited tester."""
        server = platform.access_server
        from repro.accessserver.testers import RecruitmentChannel

        tester = server.accounts.testers.recruit("participant-1", RecruitmentChannel.VOLUNTEER_EMAIL)
        session = server.accounts.share_with_tester(
            platform.experimenter, tester.tester_id, "node1", "node1-dev00", duration_s=300.0
        )
        mirroring = vantage_point.controller.mirroring_session("node1-dev00")
        viewer = mirroring.novnc.viewers()[0]
        device = vantage_point.device()
        device.packages.launch("com.android.chrome")
        mirroring.novnc.deliver_input(viewer.session_id, "keyevent KEYCODE_PAGE_DOWN")
        assert viewer.input_events == 1
        assert session.cost_usd() == 0.0
        platform.run_for(30.0)
        assert mirroring.upload_bytes() > 0

    def test_vpn_location_switch_through_ssh(self, platform, vantage_point):
        """The Section 4.3 automation extension: activate a VPN before testing."""
        server = platform.access_server
        channel = server.accounts.open_ssh_channel("node1")
        channel.execute("vpn connect japan")
        assert vantage_point.controller.vpn.active_location.key == "japan"
        assert vantage_point.controller.network_path().region() == "JP"
        channel.execute("vpn disconnect")
        assert not vantage_point.controller.vpn.connected

    def test_power_safety_flow(self, platform, vantage_point):
        """The monitor is only powered while a measurement needs it."""
        api = platform.api()
        device_id = api.list_devices()[0]
        api.power_monitor()
        trace = api.measure(device_id, duration=5.0)
        assert trace.discharge_mah() > 0
        # The maintenance job then powers the idle monitor off.
        from repro.accessserver.maintenance import build_power_safety_job

        job = platform.access_server.submit_job(
            platform.admin, build_power_safety_job(platform.access_server, "node1")
        )
        platform.access_server.run_pending_jobs()
        assert job.status is JobStatus.COMPLETED
        assert not vantage_point.monitor.mains_on

    def test_accuracy_session_matches_direct_wiring(self, platform, vantage_point):
        """Relay vs direct wiring agree to within a couple of mA (Figure 2's point)."""
        controller = vantage_point.controller
        device = vantage_point.device()
        vantage_point.monitor.set_sample_rate(200.0)
        device.packages.deliver_intent(
            "com.android.gallery3d", "android.intent.action.VIEW", "file:///sdcard/Movies/test.mp4"
        )
        relay_result = MeasurementSession(controller, device.serial, use_relay=True).measure(10.0)
        direct_result = MeasurementSession(controller, device.serial, use_relay=False).measure(10.0)
        assert relay_result.median_current_ma() == pytest.approx(
            direct_result.median_current_ma(), abs=6.0
        )
