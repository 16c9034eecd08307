"""Tests for the access server: membership, job dispatch, maintenance, testers."""

import pytest

from repro.accessserver.auth import AuthorizationError, Role
from repro.accessserver.jobs import JobConstraints, JobSpec, JobStatus
from repro.accessserver.maintenance import (
    build_certificate_renewal_job,
    build_factory_reset_job,
    build_power_safety_job,
)
from repro.accessserver.server import AccessServerError
from repro.accessserver.testers import RecruitmentChannel
from repro.accessserver.testers import TesterError as _TesterError
from repro.accessserver.testers import TesterPool as _TesterPool
from repro.core.platform import add_vantage_point


@pytest.fixture
def server(platform):
    return platform.access_server


class TestMembership:
    def test_default_platform_registered_one_vantage_point(self, server):
        assert [record.name for record in server.accounts.vantage_points()] == ["node1"]
        record = server.accounts.vantage_point("node1")
        assert record.dns_name == "node1.batterylab.dev"
        assert server.dns.resolve("node1") is not None

    def test_unknown_vantage_point(self, server):
        with pytest.raises(AccessServerError):
            server.accounts.vantage_point("node42")

    def test_duplicate_registration_rejected(self, platform):
        with pytest.raises(AccessServerError):
            add_vantage_point(platform, "node1", "Imperial College London")

    def test_add_second_vantage_point(self, platform, server):
        handle = add_vantage_point(platform, "node2", "Example University", browsers=("chrome",))
        assert handle.name == "node2"
        assert "node2" in [record.name for record in server.accounts.vantage_points()]
        assert "node2/node2-dev00" in server.scheduler.slots.keys()

    def test_ssh_channel_to_vantage_point(self, server):
        channel = server.accounts.open_ssh_channel("node1")
        assert "node1-dev00" in channel.execute("list_devices")
        channel.close()


class TestJobs:
    def make_spec(self, name="energy-study", **kwargs):
        def run(ctx):
            ctx.log("listing devices")
            return {"devices": ctx.api.list_devices(), "device": ctx.device_serial}

        return JobSpec(name=name, owner="experimenter", run=run, **kwargs)

    def test_submit_requires_permission(self, platform, server):
        tester = server.users.add_user("tester", Role.TESTER, token="t")
        with pytest.raises(AuthorizationError):
            server.submit_job(tester, self.make_spec())

    def test_submit_and_run_job(self, platform, server):
        job = server.submit_job(platform.experimenter, self.make_spec())
        executed = server.run_pending_jobs()
        assert executed == [job]
        assert job.status is JobStatus.COMPLETED
        assert job.result["devices"] == ["node1-dev00"]
        assert job.assigned_vantage_point == "node1"
        assert job.log_lines

    def test_failing_job_is_marked_failed(self, platform, server):
        def explode(ctx):
            raise RuntimeError("boom")

        job = server.submit_job(
            platform.experimenter, JobSpec(name="bad", owner="experimenter", run=explode)
        )
        server.run_pending_jobs()
        assert job.status is JobStatus.FAILED
        assert "boom" in job.error

    def test_pipeline_changes_need_admin_approval(self, platform, server):
        spec = self.make_spec(name="pipeline-change", is_pipeline_change=True)
        job = server.submit_job(platform.experimenter, spec)
        assert job.status is JobStatus.PENDING_APPROVAL
        assert server.run_pending_jobs() == []
        with pytest.raises(AuthorizationError):
            server.approve_job(platform.experimenter, job)
        server.approve_job(platform.admin, job)
        assert server.run_pending_jobs() == [job]
        assert job.status is JobStatus.COMPLETED

    def test_approving_unqueued_job_rejected(self, platform, server):
        job = server.submit_job(platform.experimenter, self.make_spec())
        with pytest.raises(AccessServerError):
            server.approve_job(platform.admin, job)

    def test_power_meter_logs_land_in_workspace(self, platform, server):
        def measure(ctx):
            device = ctx.api.list_devices()[0]
            ctx.api.power_monitor()
            ctx.api.set_voltage(3.85)
            trace = ctx.api.measure(device, duration=5.0, label="job-measure")
            ctx.store_artifact("median_ma", trace.median_current_ma())
            return trace.median_current_ma()

        job = server.submit_job(
            platform.experimenter, JobSpec(name="measure", owner="experimenter", run=measure)
        )
        server.run_pending_jobs()
        assert job.status is JobStatus.COMPLETED
        assert "power_meter_trace" in job.workspace.names()
        assert job.workspace.fetch("median_ma") > 0

    def test_noop_job_after_a_measuring_job_has_no_power_trace(self, platform, server):
        def measure(ctx):
            ctx.api.power_monitor()
            ctx.api.measure(ctx.api.list_devices()[0], duration=5.0)

        measuring = server.submit_job(
            platform.experimenter, JobSpec(name="measure", owner="experimenter", run=measure)
        )
        noop = server.submit_job(
            platform.experimenter,
            JobSpec(name="noop", owner="experimenter", run=lambda ctx: "ok"),
        )
        server.drain()
        assert measuring.status is JobStatus.COMPLETED
        assert noop.status is JobStatus.COMPLETED
        assert "power_meter_trace" in measuring.workspace.names()
        assert "power_meter_trace" not in noop.workspace.names()

    def test_measuring_job_stores_the_trace_its_run_took(self, platform, server):
        taken = []

        def measure(ctx):
            ctx.api.power_monitor()
            taken.append(ctx.api.measure(ctx.api.list_devices()[0], 5.0, label="job-measure"))

        job = server.submit_job(
            platform.experimenter, JobSpec(name="measure", owner="experimenter", run=measure)
        )
        server.run_pending_jobs()
        assert job.status is JobStatus.COMPLETED
        stored = job.workspace.fetch("power_meter_trace")
        assert len(stored) == len(taken[0])
        assert list(stored.current_ma) == list(taken[0].current_ma)
        assert stored.label == "measurement:node1-dev00"

    def test_constraint_on_unknown_device_keeps_job_queued(self, platform, server):
        spec = self.make_spec(constraints=JobConstraints(device_serial="ghost-device"))
        server.submit_job(platform.experimenter, spec)
        assert server.run_pending_jobs() == []


class TestMaintenanceJobs:
    def test_power_safety_job_turns_idle_monitor_off(self, platform, server, vantage_point):
        vantage_point.controller.set_power_monitor(True)
        spec = build_power_safety_job(server, "node1")
        job = server.submit_job(platform.admin, spec)
        server.run_pending_jobs()
        assert job.status is JobStatus.COMPLETED
        assert not vantage_point.monitor.mains_on
        assert "powered off monitor" in job.result["actions"]

    def test_power_safety_job_leaves_active_monitor_alone(self, platform, server, vantage_point):
        controller = vantage_point.controller
        controller.set_power_monitor(True)
        controller.set_voltage(3.85)
        controller.batt_switch("node1-dev00", True)
        vantage_point.monitor.start_sampling()
        job = server.submit_job(platform.admin, build_power_safety_job(server, "node1"))
        server.run_pending_jobs()
        assert vantage_point.monitor.mains_on
        assert job.result["actions"] == []
        vantage_point.monitor.stop_sampling()

    def test_factory_reset_job(self, platform, server, vantage_point):
        device = vantage_point.device()
        device.packages.launch("com.android.chrome")
        job = server.submit_job(
            platform.admin, build_factory_reset_job(server, "node1", device.serial)
        )
        server.run_pending_jobs()
        assert job.status is JobStatus.COMPLETED
        assert not device.packages.is_running("com.android.chrome")

    def test_certificate_renewal_job_noop_when_fresh(self, platform, server):
        job = server.submit_job(platform.admin, build_certificate_renewal_job(server))
        server.run_pending_jobs()
        assert job.status is JobStatus.COMPLETED
        assert job.result["renewed"] is False

    def test_certificate_renewal_job_deploys_when_due(self, platform, server, vantage_point):
        # Backdate the platform certificate so it sits inside the renewal window.
        backdated = server.certificate_authority.issue(now=-80 * 24 * 3600.0)
        server.set_wildcard_certificate(backdated)
        old_serial = server.wildcard_certificate.serial_number
        job = server.submit_job(platform.admin, build_certificate_renewal_job(server))
        server.run_pending_jobs()
        assert job.result["renewed"] is True
        assert server.wildcard_certificate.serial_number > old_serial
        assert "/etc/batterylab/wildcard.pem" in vantage_point.controller.ssh_server.files


class TestSessionsAndTesters:
    def test_reserve_session_requires_permission(self, platform, server):
        reservation = server.reserve_session(
            platform.experimenter, "node1", "node1-dev00", start_s=0.0, duration_s=600.0
        )
        assert reservation.username == "experimenter"

    def test_share_with_tester_hides_toolbar(self, platform, server, vantage_point):
        tester = server.accounts.testers.recruit(
            "worker-1", RecruitmentChannel.MECHANICAL_TURK, hourly_rate_usd=12.0
        )
        session = server.accounts.share_with_tester(
            platform.experimenter,
            tester.tester_id,
            "node1",
            "node1-dev00",
            duration_s=900.0,
        )
        assert not session.toolbar_visible
        assert session.cost_usd() == pytest.approx(3.0)
        mirroring = vantage_point.controller.mirroring_session("node1-dev00")
        assert mirroring is not None and mirroring.active
        assert mirroring.novnc.viewer_count() == 1

    def test_tester_pool_rules(self):
        pool = _TesterPool()
        volunteer = pool.recruit("vol", RecruitmentChannel.VOLUNTEER_EMAIL)
        assert not volunteer.paid
        with pytest.raises(_TesterError):
            pool.recruit("cheap", RecruitmentChannel.FIGURE_EIGHT, hourly_rate_usd=0.0)
        with pytest.raises(_TesterError):
            pool.tester(999)
        session = pool.open_session(volunteer.tester_id, "node1", "dev0", now=0.0, duration_s=60.0)
        session.record_action("tap")
        session.close()
        with pytest.raises(_TesterError):
            session.record_action("tap-after-close")
        assert pool.total_cost_usd() == 0.0
        with pytest.raises(_TesterError):
            pool.open_session(volunteer.tester_id, "node1", "dev0", now=0.0, duration_s=0.0)

    def test_status(self, server):
        status = server.status()
        assert status["vantage_points"] == ["node1"]
        assert "experimenter" in status["users"]
