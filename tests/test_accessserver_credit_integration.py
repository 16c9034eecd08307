"""Tests for the access server's optional credit-based access model."""

import pytest

from repro.accessserver.auth import Role
from repro.accessserver.credits import CreditError
from repro.accessserver.jobs import JobSpec, JobStatus


def quick_job(name="credit-job", timeout_s=1800.0, owner="experimenter"):
    def run(ctx):
        ctx.api.power_monitor()
        ctx.api.set_voltage(3.85)
        trace = ctx.api.measure(ctx.api.list_devices()[0], duration=30.0)
        return trace.median_current_ma()

    return JobSpec(name=name, owner=owner, run=run, timeout_s=timeout_s)


class TestCreditIntegration:
    def test_disabled_by_default(self, platform):
        assert platform.access_server.accounts.credit_policy is None
        job = platform.access_server.submit_job(platform.experimenter, quick_job())
        platform.access_server.run_pending_jobs()
        assert job.status is JobStatus.COMPLETED

    def test_experimenters_get_an_account_and_are_charged(self, platform):
        server = platform.access_server
        ledger = server.accounts.enable_credit_system(initial_grant_device_hours=2.0)
        job = server.submit_job(platform.experimenter, quick_job(timeout_s=1800.0))
        server.run_pending_jobs()
        assert job.status is JobStatus.COMPLETED
        account = ledger.account("experimenter")
        assert account.balance_device_hours < 2.0
        usage = [t for t in account.transactions if t.kind.value == "usage"]
        assert usage and usage[-1].amount_device_hours <= 0.0

    def test_submission_rejected_without_enough_credits(self, platform):
        server = platform.access_server
        server.accounts.enable_credit_system(initial_grant_device_hours=0.1)
        with pytest.raises(CreditError):
            server.submit_job(platform.experimenter, quick_job(timeout_s=7200.0))

    def test_admin_jobs_bypass_credits(self, platform):
        server = platform.access_server
        server.accounts.enable_credit_system(initial_grant_device_hours=0.0)
        spec = JobSpec(name="admin-job", owner="admin", run=lambda ctx: "ok", timeout_s=7200.0)
        job = server.submit_job(platform.admin, spec)
        server.run_pending_jobs()
        assert job.status is JobStatus.COMPLETED

    def test_contributing_institution_runs_for_free(self, platform):
        server = platform.access_server
        ledger = server.accounts.enable_credit_system(initial_grant_device_hours=0.0)
        contributor = server.users.add_user("imperial", Role.EXPERIMENTER, token="imperial-token")
        ledger.open_account("imperial", contributes_hardware=True)
        ledger.credit_contribution("imperial", device_hours=24.0, now=0.0, note="node1 uptime")
        job = server.submit_job(contributor, quick_job(owner="imperial", timeout_s=7200.0))
        server.run_pending_jobs()
        assert job.status is JobStatus.COMPLETED
        # Contributors are never charged for usage.
        assert ledger.balance("imperial") == pytest.approx(36.0)

    def test_failed_jobs_still_consume_credits(self, platform):
        server = platform.access_server
        ledger = server.accounts.enable_credit_system(initial_grant_device_hours=2.0)

        def crash(ctx):
            ctx.api.power_monitor()
            ctx.api.set_voltage(3.85)
            ctx.api.measure(ctx.api.list_devices()[0], duration=20.0)
            raise RuntimeError("bug")

        job = server.submit_job(
            platform.experimenter,
            JobSpec(name="crash", owner="experimenter", run=crash, timeout_s=900.0),
        )
        server.run_pending_jobs()
        assert job.status is JobStatus.FAILED
        assert ledger.balance("experimenter") < 2.0


class TestWhoPays:
    """One rule decides who pays, at admission and at settlement alike: the
    job's ``spec.owner``, unless that owner is an administrator account."""

    def test_admin_cannot_submit_for_an_owner_who_cannot_pay(self, platform):
        server = platform.access_server
        ledger = server.accounts.enable_credit_system(initial_grant_device_hours=0.0)
        with pytest.raises(CreditError, match="'experimenter' lacks credits"):
            server.submit_job(platform.admin, quick_job(timeout_s=3600.0))
        assert server.scheduler.job_count() == 0
        assert [account.owner for account in ledger.accounts()] == ["experimenter"]

    def test_job_submit_with_an_owner_field_is_refused_over_the_api(self, platform):
        from repro.api.errors import CreditApiError

        platform.access_server.accounts.enable_credit_system(initial_grant_device_hours=0.0)
        with pytest.raises(CreditApiError) as excinfo:
            platform.client("admin").submit_job(
                "for-experimenter", "noop", owner="experimenter", timeout_s=3600.0
            )
        assert excinfo.value.code == "credits.insufficient"

    def test_funded_owner_is_billed_for_the_hour_not_the_submitter(self, platform):
        server = platform.access_server
        ledger = server.accounts.enable_credit_system(initial_grant_device_hours=2.0)
        spec = JobSpec(
            name="hour-long",
            owner="experimenter",
            run=lambda ctx: platform.context.run_for(3600.0),
            timeout_s=3600.0,
        )
        job = server.submit_job(platform.admin, spec)
        server.run_pending_jobs()
        assert job.status is JobStatus.COMPLETED
        usage = [t for t in ledger.account("experimenter").transactions if t.kind.value == "usage"]
        assert [t.amount_device_hours for t in usage] == [pytest.approx(-1.0)]
        assert ledger.balance("experimenter") == pytest.approx(1.0)
        assert "admin" not in ledger

    def test_maintenance_jobs_stay_free(self, platform):
        from repro.accessserver.maintenance import build_power_safety_job

        server = platform.access_server
        ledger = server.accounts.enable_credit_system(initial_grant_device_hours=0.0)
        job = server.submit_job(platform.admin, build_power_safety_job(server, "node1"))
        server.run_pending_jobs()
        assert job.status is JobStatus.COMPLETED
        assert ledger.accounts() == []
