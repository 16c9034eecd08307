"""Platform API v2 admin control plane, sessions, pagination, idempotency.

The acceptance bar: an administrator runs the platform entirely through
the client SDK — login, vantage-point registration, approvals, credit
grants, user creation — with v1 clients untouched and admin actions
journaled for crash recovery.
"""

import pytest

from repro.accessserver.auth import Role, SessionExpiredError
from repro.accessserver.persistence import InMemoryBackend
from repro.accessserver.server import AccessServer
from repro.api import (
    ApiRouter,
    AuthenticationApiError,
    BatteryLabClient,
    ConflictApiError,
    InProcessTransport,
    NotFoundApiError,
    PermissionApiError,
    SessionApiError,
    ValidationApiError,
    VersionApiError,
)
from repro.core.platform import build_default_platform
from repro.simulation.entity import SimulationContext


@pytest.fixture()
def platform():
    return build_default_platform(seed=31, browsers=("chrome",))


@pytest.fixture()
def admin(platform):
    return platform.client(username="admin")


@pytest.fixture()
def client(platform):
    return platform.client()


def _client_for(platform, username, token):
    return BatteryLabClient(
        InProcessTransport(ApiRouter(platform.access_server)), username, token
    )


class TestSessions:
    def test_login_issues_session_and_upgrades_client(self, platform, admin):
        view = admin.login(ttl_s=600.0)
        assert view.username == "admin"
        assert view.role == "admin"
        assert view.expires_at == view.issued_at + 600.0
        assert admin.session_active
        # subsequent calls ride the session (and negotiate v2)
        assert admin.server_status().api_version == "2.0"

    def test_login_with_wrong_token_fails(self, platform):
        impostor = _client_for(platform, "admin", "nope")
        with pytest.raises(AuthenticationApiError):
            impostor.login()

    def test_logout_revokes_session(self, platform, admin):
        admin.login()
        assert admin.logout() is True
        assert not admin.session_active
        # credentials still work post-logout (v1 path)
        assert admin.server_status().api_version == "1.0"

    def test_expired_session_is_resolved_as_session_error(self, platform):
        server = platform.access_server
        token, session = server.sessions.login(
            server.users, "admin", "admin-token", now=0.0, ttl_s=10.0
        )
        platform.context.run_for(11.0)
        with pytest.raises(SessionExpiredError):
            server.sessions.resolve(server.users, token, platform.context.now)

    def test_expired_session_triggers_transparent_relogin(self, platform, admin):
        admin.login(ttl_s=10.0)
        platform.context.run_for(11.0)
        # The session lapsed; the client must re-login with its account
        # credentials and retry, not surface auth.session_expired.
        assert admin.server_status().api_version == "2.0"
        assert admin.session_active

    def test_revoked_user_loses_sessions(self, platform, admin):
        admin.login()
        platform.access_server.sessions.revoke_user("admin")
        # account credentials remain valid, so the client re-logs-in; to see
        # the raw failure, resolve the old token directly:
        assert platform.access_server.sessions.active_count(platform.context.now) == 0

    def test_session_token_rejected_on_v1_envelope(self, platform, admin):
        view = admin.login()
        router = ApiRouter(platform.access_server)
        response = router.handle(
            {"op": "server.status", "version": "1.0", "session": view.session_token}
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "request.version_unsupported"

    def test_session_error_code_crosses_wire(self, platform):
        router = ApiRouter(platform.access_server)
        response = router.handle(
            {"op": "server.status", "version": "2.0", "session": "forged"}
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "auth.session_expired"


class TestVersionNegotiation:
    def test_v2_ops_rejected_on_v1_envelopes(self, platform):
        router = ApiRouter(platform.access_server)
        response = router.handle(
            {
                "op": "approvals.list",
                "version": "1.0",
                "auth": {"username": "admin", "token": "admin-token"},
            }
        )
        assert response["error"]["code"] == "request.version_unsupported"
        assert response["error"]["details"]["min_version"] == "2.0"

    def test_response_echoes_negotiated_version(self, platform):
        router = ApiRouter(platform.access_server)
        auth = {"username": "admin", "token": "admin-token"}
        v1 = router.handle({"op": "server.status", "version": "1.0", "auth": auth})
        v2 = router.handle({"op": "server.status", "version": "2.0", "auth": auth})
        assert v1["version"] == "1.0" and v1["payload"]["api_version"] == "1.0"
        assert v2["version"] == "2.0" and v2["payload"]["api_version"] == "2.0"

    def test_operations_table_versioned(self, platform):
        router = ApiRouter(platform.access_server)
        v1_ops = set(router.operations())
        v2_ops = set(router.operations("2.0"))
        assert "job.submit" in v1_ops and "auth.login" not in v1_ops
        assert v2_ops > v1_ops
        assert {
            "auth.login",
            "auth.logout",
            "vantage-point.register",
            "approvals.list",
            "job.approve",
            "job.reject",
            "credits.grant",
            "user.create",
            "job.watch",
            "events.subscribe",
            "subscription.cancel",
        } <= v2_ops


class TestAdminControlPlane:
    def test_register_vantage_point_over_the_api(self, platform, admin, client):
        view = admin.register_vantage_point(
            "node2", "Example University", device_count=2, device_profile="google-pixel-3a"
        )
        assert view.name == "node2"
        assert [d.serial for d in view.devices] == ["node2-dev00", "node2-dev01"]
        # the new node is schedulable immediately
        job = client.submit_job("on-node2", "noop", vantage_point="node2")
        platform.run_queue()
        assert client.job_status(job.job_id).vantage_point == "node2"

    def test_register_duplicate_vantage_point_conflicts(self, platform, admin):
        with pytest.raises(Exception) as excinfo:
            admin.register_vantage_point("node1", "Imperial College London")
        assert excinfo.value.code == "resource.conflict"

    def test_register_unknown_profile_is_invalid(self, admin):
        with pytest.raises(ValidationApiError):
            admin.register_vantage_point("nodeX", "X", device_profile="nokia-3310")

    def test_experimenter_cannot_register_vantage_points(self, client):
        with pytest.raises(PermissionApiError):
            client.register_vantage_point("node9", "Rogue Lab")

    def test_approval_workflow_over_the_api(self, platform, admin, client):
        job = client.submit_job("pipeline", "noop", is_pipeline_change=True)
        assert [v.job_id for v in admin.approvals()] == [job.job_id]
        approved = admin.approve_job(job.job_id)
        assert approved.status == "queued"
        assert admin.approvals() == []
        platform.run_queue()
        assert client.job_status(job.job_id).status == "completed"

    def test_reject_workflow_over_the_api(self, platform, admin, client):
        job = client.submit_job("bad-pipeline", "noop", is_pipeline_change=True)
        rejected = admin.reject_job(job.job_id, reason="unsafe payload")
        assert rejected.status == "cancelled"
        assert rejected.error == "rejected: unsafe payload"
        assert admin.approvals() == []
        platform.run_queue()
        assert client.job_status(job.job_id).status == "cancelled"

    def test_reject_non_pending_job_conflicts(self, platform, admin, client):
        job = client.submit_job("plain", "noop")
        with pytest.raises(Exception) as excinfo:
            admin.reject_job(job.job_id)
        assert excinfo.value.code == "resource.conflict"

    def test_experimenter_cannot_approve(self, platform, client):
        job = client.submit_job("pipeline", "noop", is_pipeline_change=True)
        with pytest.raises(PermissionApiError):
            client.approve_job(job.job_id)

    def test_grant_credits_over_the_api(self, platform, admin):
        platform.access_server.accounts.enable_credit_system(initial_grant_device_hours=0.0)
        balance = admin.grant_credits("experimenter", 7.5, note="welcome")
        assert balance.owner == "experimenter"
        assert balance.balance_device_hours == 7.5

    def test_grant_credits_requires_credit_system(self, admin):
        with pytest.raises(NotFoundApiError):
            admin.grant_credits("experimenter", 1.0)

    def test_grant_credits_requires_admin(self, platform, client):
        platform.access_server.accounts.enable_credit_system()
        with pytest.raises(PermissionApiError):
            client.grant_credits("experimenter", 1.0)

    def test_create_user_over_the_api(self, platform, admin):
        view = admin.create_user("carol", "experimenter", "carol-token", email="c@x.org")
        assert view.username == "carol"
        assert view.role == "experimenter"
        carol = _client_for(platform, "carol", "carol-token")
        assert carol.server_status().queued_jobs == 0

    def test_create_user_unknown_role_is_invalid(self, admin):
        with pytest.raises(ValidationApiError):
            admin.create_user("dave", "emperor", "t")

    def test_create_user_of_an_existing_account_is_a_conflict(self, admin):
        admin.create_user("carol", "experimenter", "carol-token")
        with pytest.raises(ConflictApiError):
            admin.create_user("carol", "admin", "other-token")

    def test_create_user_requires_admin(self, client):
        with pytest.raises(PermissionApiError):
            client.create_user("eve", "admin", "t")

    def test_full_remote_admin_workflow_via_session(self, platform, admin, client):
        """Login once, then run the whole operator loop on the session."""
        platform.access_server.accounts.enable_credit_system()
        admin.login(ttl_s=3600.0)
        admin.register_vantage_point("node2", "Example University")
        admin.create_user("alice", "experimenter", "alice-token")
        admin.grant_credits("alice", 10.0)
        alice = _client_for(platform, "alice", "alice-token")
        alice.login()
        job = alice.submit_job("pipeline", "noop", is_pipeline_change=True)
        watch = alice.watch_job(job.job_id)
        admin.approve_job(job.job_id)
        platform.run_queue()
        assert watch.wait().status == "completed"
        assert admin.logout() is True


class TestPagination:
    def test_job_page_windows_and_totals(self, platform, client):
        for index in range(5):
            client.submit_job(f"job-{index}", "noop", vantage_point="nowhere")
        page = client.job_page(limit=2, offset=1)
        assert page.total == 5
        assert [v.name for v in page.jobs] == ["job-1", "job-2"]
        assert page.limit == 2 and page.offset == 1
        rest = client.job_page(offset=4)
        assert [v.name for v in rest.jobs] == ["job-4"]

    def test_job_page_owner_filter(self, platform, admin, client):
        client.submit_job("mine", "noop", vantage_point="nowhere")
        admin.submit_job("theirs", "noop", vantage_point="nowhere")
        page = client.job_page(owner="admin")
        assert [v.name for v in page.jobs] == ["theirs"]
        assert page.total == 1

    def test_job_page_status_filter_still_applies(self, platform, client):
        client.submit_job("run-me", "noop")
        client.submit_job("stuck", "noop", vantage_point="nowhere")
        platform.run_queue()
        page = client.job_page(status="queued")
        assert [v.name for v in page.jobs] == ["stuck"]

    def test_negative_window_rejected(self, client):
        with pytest.raises(ValidationApiError):
            client.job_page(limit=-1)
        with pytest.raises(ValidationApiError):
            client.job_page(offset=-1)

    def test_v1_list_jobs_unchanged(self, platform, client):
        client.submit_job("one", "noop", vantage_point="nowhere")
        assert [v.name for v in client.list_jobs()] == ["one"]


class TestIdempotentSubmit:
    def test_resubmit_returns_original_job(self, platform, client):
        first = client.submit_job("retry-me", "noop", vantage_point="nowhere",
                                  idempotency_key="abc")
        second = client.submit_job("retry-me", "noop", vantage_point="nowhere",
                                   idempotency_key="abc")
        assert first.job_id == second.job_id
        assert len(client.list_jobs()) == 1

    def test_different_keys_enqueue_separately(self, platform, client):
        a = client.submit_job("x", "noop", vantage_point="nowhere", idempotency_key="k1")
        b = client.submit_job("x", "noop", vantage_point="nowhere", idempotency_key="k2")
        assert a.job_id != b.job_id

    def test_keys_are_scoped_per_owner(self, platform, admin, client):
        mine = client.submit_job("x", "noop", vantage_point="nowhere", idempotency_key="k")
        theirs = admin.submit_job("x", "noop", vantage_point="nowhere", idempotency_key="k")
        assert mine.job_id != theirs.job_id

    def test_idempotent_after_completion_returns_terminal_view(self, platform, client):
        first = client.submit_job("done", "noop", idempotency_key="k")
        platform.run_queue()
        again = client.submit_job("done", "noop", idempotency_key="k")
        assert again.job_id == first.job_id
        assert again.status == "completed"


class TestAdminActionsJournaled:
    def _fresh_server(self, seed=5):
        context = SimulationContext(seed=seed)
        server = AccessServer(context)
        admin = server.accounts.bootstrap_admin()
        return server, admin

    def test_users_and_idempotency_survive_recovery(self):
        backend = InMemoryBackend()
        server, admin = self._fresh_server()
        server.enable_persistence(backend)
        server.accounts.create_user(admin, "alice", Role.EXPERIMENTER, "alice-token", email="a@x.org")
        alice = server.users.get("alice")
        from repro.accessserver.jobs import JobConstraints, JobSpec

        spec = JobSpec(
            name="j",
            owner="alice",
            run=lambda ctx: None,
            constraints=JobConstraints(vantage_point="nowhere"),
        )
        job = server.submit_job(alice, spec, idempotency_key="k1")
        server.persistence.close()

        recovered, _ = self._fresh_server()
        report = recovered.enable_persistence(backend).last_recovery
        assert report.users_restored == 2  # admin + alice
        assert report.idempotency_keys_restored == 1
        # the recovered account authenticates with the original token
        user = recovered.users.authenticate("alice", "alice-token")
        assert user.role is Role.EXPERIMENTER
        assert user.email == "a@x.org"
        # the idempotency map still deduplicates
        duplicate = recovered.submit_job(user, spec, idempotency_key="k1")
        assert duplicate.job_id == job.job_id

    def test_rejection_survives_recovery(self):
        backend = InMemoryBackend()
        server, admin = self._fresh_server()
        server.enable_persistence(backend)
        from repro.accessserver.jobs import JobSpec

        spec = JobSpec(name="p", owner="admin", run=lambda ctx: None, is_pipeline_change=True)
        job = server.submit_job(admin, spec)
        server.reject_job(admin, job, reason="nope")
        server.persistence.close()

        recovered, _ = self._fresh_server()
        recovered.enable_persistence(backend)
        assert recovered.pending_approval() == []
        from repro.accessserver.jobs import JobStatus

        restored = recovered.scheduler.job(job.job_id)
        assert restored.status is JobStatus.CANCELLED
        # the rejection reason survives recovery for the job's owner
        assert restored.error == "rejected: nope"
