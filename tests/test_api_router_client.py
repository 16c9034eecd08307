"""Router and client SDK tests: operations, auth, ownership, typed errors."""

import pytest

from repro.accessserver.auth import Role
from repro.api import (
    ApiRouter,
    AuthenticationApiError,
    BatteryLabClient,
    CreditApiError,
    InProcessTransport,
    NotFoundApiError,
    PermissionApiError,
    UnknownOperationApiError,
    ValidationApiError,
    VersionApiError,
)
from repro.core.platform import build_default_platform


@pytest.fixture()
def platform():
    return build_default_platform(seed=11, browsers=("chrome",))


@pytest.fixture()
def client(platform):
    return platform.client()


def _client_for(platform, username, token, **kwargs):
    return BatteryLabClient(
        InProcessTransport(ApiRouter(platform.access_server)), username, token, **kwargs
    )


class TestJobLifecycle:
    def test_submit_dispatch_results(self, platform, client):
        view = client.submit_job("smoke", "noop", priority=1.5)
        assert view.status == "queued"
        assert view.owner == "experimenter"
        assert view.priority == 1.5
        platform.run_queue()
        assert client.job_status(view.job_id).status == "completed"
        results = client.job_results(view.job_id)
        assert results.status == "completed"
        assert results.error is None

    def test_submit_callable_payload_auto_registers(self, platform, client):
        def answer(ctx):
            return {"answer": 42}

        view = client.submit_job("inline", answer)
        platform.run_queue()
        assert client.job_results(view.job_id).result == {"answer": 42}

    def test_list_jobs_with_status_filter(self, platform, client):
        first = client.submit_job("one", "noop")
        platform.run_queue()
        client.submit_job("two", "noop", vantage_point="nowhere")
        assert {v.job_id for v in client.list_jobs()} >= {first.job_id}
        assert [v.name for v in client.list_jobs(status="queued")] == ["two"]
        with pytest.raises(ValidationApiError):
            client.list_jobs(status="haunted")

    def test_cancel_queued_job(self, platform, client):
        view = client.submit_job("doomed", "noop", vantage_point="nowhere")
        cancelled = client.cancel_job(view.job_id)
        assert cancelled.status == "cancelled"

    def test_cancel_finished_job_conflicts(self, platform, client):
        view = client.submit_job("done", "noop")
        platform.run_queue()
        with pytest.raises(Exception) as excinfo:
            client.cancel_job(view.job_id)
        assert excinfo.value.code == "resource.conflict"

    def test_unknown_job_is_not_found(self, client):
        with pytest.raises(NotFoundApiError):
            client.job_status(999)

    def test_unknown_payload_rejected_up_front(self, client):
        with pytest.raises(ValidationApiError) as excinfo:
            client.submit_job("bad", "never-registered")
        assert excinfo.value.details["payload"] == "never-registered"

    def test_pipeline_change_waits_for_approval(self, platform, client):
        view = client.submit_job("pipeline", "noop", is_pipeline_change=True)
        assert view.status == "pending_approval"
        (job,) = platform.access_server.pending_approval()
        platform.access_server.approve_job(platform.admin, job)
        platform.run_queue()
        assert client.job_status(view.job_id).status == "completed"


class TestAuthAndOwnership:
    def test_wrong_token_is_auth_failure(self, platform):
        with pytest.raises(AuthenticationApiError):
            _client_for(platform, "experimenter", "nope").fleet()

    def test_unknown_user_is_auth_failure(self, platform):
        with pytest.raises(AuthenticationApiError):
            _client_for(platform, "ghost", "boo").fleet()

    def test_missing_auth_is_auth_failure(self, platform):
        router = ApiRouter(platform.access_server)
        response = router.handle({"op": "fleet.list"})
        assert response["ok"] is False
        assert response["error"]["code"] == "auth.invalid_credentials"

    def test_tester_cannot_submit_jobs(self, platform):
        platform.access_server.users.add_user("tester1", Role.TESTER, "tester-token")
        tester = _client_for(platform, "tester1", "tester-token")
        with pytest.raises(PermissionApiError):
            tester.submit_job("sneaky", "noop")

    def test_owner_spoofing_requires_admin(self, platform, client):
        with pytest.raises(PermissionApiError):
            client.submit_job("spoof", "noop", owner="admin")
        admin = platform.client(username="admin")
        view = admin.submit_job("delegated", "noop", owner="experimenter")
        assert view.owner == "experimenter"

    def test_results_of_foreign_job_denied(self, platform, client):
        platform.access_server.users.add_user("rival", Role.EXPERIMENTER, "rival-token")
        view = client.submit_job("private", "noop")
        rival = _client_for(platform, "rival", "rival-token")
        with pytest.raises(PermissionApiError):
            rival.job_results(view.job_id)
        with pytest.raises(PermissionApiError):
            rival.cancel_job(view.job_id)
        # status stays visible: the queue is shared infrastructure
        assert rival.job_status(view.job_id).owner == "experimenter"


class TestEnvelopes:
    def test_unsupported_version_rejected(self, platform):
        stale = _client_for(platform, "experimenter", "experimenter-token", version="0.9")
        with pytest.raises(VersionApiError) as excinfo:
            stale.fleet()
        assert "1.0" in excinfo.value.details["supported_versions"]

    def test_unknown_operation(self, platform):
        router = ApiRouter(platform.access_server)
        response = router.handle(
            {
                "op": "job.frobnicate",
                "auth": {"username": "experimenter", "token": "experimenter-token"},
            }
        )
        assert response["error"]["code"] == "request.unknown_operation"
        assert "job.submit" in response["error"]["details"]["operations"]

    def test_malformed_envelope_is_request_invalid(self, platform):
        router = ApiRouter(platform.access_server)
        response = router.handle({"op": "fleet.list", "shenanigans": 1})
        assert response["error"]["code"] == "request.invalid"

    def test_request_id_echoes(self, platform):
        router = ApiRouter(platform.access_server)
        response = router.handle(
            {
                "op": "server.status",
                "request_id": 41,
                "auth": {"username": "experimenter", "token": "experimenter-token"},
            }
        )
        assert response["ok"] is True
        assert response["request_id"] == 41

    def test_handle_never_raises(self, platform):
        router = ApiRouter(platform.access_server)
        assert router.handle({"op": 3})["ok"] is False

    def test_operation_table(self, platform):
        operations = ApiRouter(platform.access_server).operations()
        assert set(operations) == {
            "job.submit",
            "job.status",
            "job.list",
            "job.cancel",
            "job.results",
            "session.reserve",
            "credits.balance",
            "fleet.list",
            "server.status",
        }


class TestSessionsCreditsFleetStatus:
    def test_reserve_session(self, platform, client):
        view = client.reserve_session("node1", "node1-dev00", 50.0, 600.0)
        assert view.username == "experimenter"
        assert view.end_s == 650.0
        assert len(platform.access_server.scheduler.reservations.all()) == 1

    def test_reserve_unknown_vantage_point(self, client):
        with pytest.raises(NotFoundApiError):
            client.reserve_session("node9", "dev", 0.0, 60.0)

    def test_credits_disabled_is_not_found(self, client):
        with pytest.raises(NotFoundApiError):
            client.credits_balance()

    def test_credits_balance_and_denial(self, platform, client):
        ledger = platform.access_server.accounts.enable_credit_system(
            initial_grant_device_hours=2.0
        )
        ledger.open_account("experimenter", now=0.0)
        balance = client.credits_balance()
        assert balance.balance_device_hours == 2.0
        with pytest.raises(CreditApiError):
            client.submit_job("greedy", "noop", timeout_s=100 * 3600.0)
        # admins may inspect anyone; peers may not
        admin = platform.client(username="admin")
        assert admin.credits_balance(owner="experimenter").owner == "experimenter"
        with pytest.raises(PermissionApiError):
            client.credits_balance(owner="admin")

    def test_fleet_reflects_busy_devices(self, platform, client):
        fleet = client.fleet()
        assert fleet.device_serials() == ["node1-dev00"]
        assert fleet.vantage_points[0].institution == "Imperial College London"

    def test_server_status_view(self, platform, client):
        client.submit_job("queued-one", "noop", vantage_point="nowhere")
        view = client.server_status()
        assert view.api_version == "1.0"
        assert view.queued_jobs == 1
        assert view.scheduling_policy == "fifo"
        # the job is pinned to an unregistered vantage point -> orphaned
        assert view.orphaned_vantage_points == ["nowhere"]
        assert len(view.orphaned_jobs) == 1
