"""TLS gateway end-to-end: the paper's HTTPS-only rule made real.

Generates self-signed wildcard material (via the ``openssl`` binary),
serves the Platform API over TLS, and drives the full remote-admin
acceptance workflow — login, vantage-point registration, approval, credit
grant, job.watch streaming — over the encrypted socket with full
certificate verification on.
"""

import threading
import time

import pytest

from repro.accessserver.certificates import (
    CertificateError,
    client_tls_context,
    ensure_tls_material,
    openssl_available,
    server_tls_context,
)
from repro.api import (
    ApiGateway,
    ApiRouter,
    AuthenticationApiError,
    BatteryLabClient,
    JsonLinesTransport,
    TransportApiError,
)
from repro.core.platform import build_default_platform

needs_openssl = pytest.mark.skipif(
    not openssl_available(), reason="the openssl binary is required to mint TLS material"
)


@pytest.fixture()
def platform():
    return build_default_platform(seed=29, browsers=("chrome",))


@pytest.fixture()
def tls_material(tmp_path):
    if not openssl_available():
        pytest.skip("the openssl binary is required to mint TLS material")
    return ensure_tls_material(tmp_path / "tls")


class TestTlsMaterial:
    @needs_openssl
    def test_material_minted_and_reused(self, tmp_path, platform):
        certificate = platform.access_server.wildcard_certificate
        material = ensure_tls_material(tmp_path / "tls", certificate=certificate)
        assert material.exists()
        assert material.common_name == "*.batterylab.dev"
        assert material.serial_number == certificate.serial_number
        first_bytes = material.cert_path.read_bytes()
        again = ensure_tls_material(tmp_path / "tls", certificate=certificate)
        assert again.cert_path.read_bytes() == first_bytes  # reused, not re-minted

    def test_missing_openssl_reports_clearly(self, tmp_path, monkeypatch):
        import repro.accessserver.certificates as certs

        monkeypatch.setattr(certs.shutil, "which", lambda name: None)
        with pytest.raises(CertificateError) as excinfo:
            certs.ensure_tls_material(tmp_path / "tls")
        assert "openssl" in str(excinfo.value)


class TestTlsGateway:
    def _tls_client(self, gateway, material, username, token, timeout_s=10.0):
        host, port = gateway.address
        return BatteryLabClient(
            JsonLinesTransport(
                host, port, timeout_s=timeout_s, tls_context=client_tls_context(material)
            ),
            username,
            token,
        )

    @needs_openssl
    def test_round_trip_over_tls(self, platform, tls_material):
        gateway = ApiGateway(
            ApiRouter(platform.access_server),
            tls_context=server_tls_context(tls_material),
        )
        gateway.start()
        try:
            with self._tls_client(
                gateway, tls_material, "experimenter", "experimenter-token"
            ) as client:
                assert client.server_status().api_version == "1.0"
                assert gateway.tls_enabled
        finally:
            gateway.stop()

    @needs_openssl
    def test_plaintext_client_cannot_reach_tls_gateway(self, platform, tls_material):
        gateway = ApiGateway(
            ApiRouter(platform.access_server),
            tls_context=server_tls_context(tls_material),
        )
        gateway.start()
        host, port = gateway.address
        try:
            plaintext = BatteryLabClient(
                JsonLinesTransport(host, port, timeout_s=1.0),
                "experimenter",
                "experimenter-token",
            )
            with pytest.raises(TransportApiError):
                plaintext.server_status()
            plaintext.close()
        finally:
            gateway.stop()

    def test_https_only_rule_rejects_insecure_plaintext(self, platform):
        """With assume_https=False a plaintext connection is insecure and the
        HTTPS-only user registry refuses to authenticate over it."""
        gateway = ApiGateway(ApiRouter(platform.access_server), assume_https=False)
        gateway.start()
        host, port = gateway.address
        try:
            client = BatteryLabClient(
                JsonLinesTransport(host, port, timeout_s=5.0),
                "experimenter",
                "experimenter-token",
            )
            with pytest.raises(AuthenticationApiError) as excinfo:
                client.server_status()
            assert "HTTPS" in str(excinfo.value)
            client.close()
        finally:
            gateway.stop()

    @needs_openssl
    def test_full_remote_admin_workflow_over_tls(self, platform, tmp_path):
        """The acceptance criterion: an admin completes the paper workflow
        remotely over a TLS socket — login, register a vantage point,
        approve a pending job, grant credits, and stream the job's
        dispatch.* events via watch_job() until completion."""
        platform.access_server.accounts.enable_credit_system()
        gateway = platform.serve_gateway(
            tls_cert_dir=tmp_path / "tls", assume_https=False
        )
        material = ensure_tls_material(tmp_path / "tls")
        stop = threading.Event()

        def drive():
            while not stop.is_set():
                with gateway.router_lock:  # serialize with gateway requests
                    platform.run_queue()
                    platform.context.run_for(1.0)
                time.sleep(0.01)

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        try:
            admin = self._tls_client(gateway, material, "admin", "admin-token")
            session = admin.login(ttl_s=600.0)
            assert session.role == "admin"
            assert admin.session_active

            vp = admin.register_vantage_point(
                "node2", "Example University", device_count=1
            )
            assert vp.name == "node2"

            admin.create_user("alice", "experimenter", "alice-token")
            balance = admin.grant_credits("alice", 10.0, note="onboarding")
            assert balance.balance_device_hours >= 10.0

            alice = self._tls_client(gateway, material, "alice", "alice-token")
            alice.login()
            job = alice.submit_job(
                "pipeline-change",
                "noop",
                is_pipeline_change=True,
                idempotency_key="tls-e2e",
            )
            assert [view.job_id for view in admin.approvals()] == [job.job_id]

            watch = alice.watch_job(job.job_id, timeout_s=30.0)
            assert admin.approve_job(job.job_id).status in ("queued", "running")
            final = watch.wait()
            assert final.status == "completed"

            assert admin.logout() is True
            alice.close()
            admin.close()
        finally:
            stop.set()
            driver.join(timeout=5.0)
            gateway.stop()


class TestTlsTraceEndToEnd:
    """Telemetry acceptance: one job over the encrypted socket, one trace."""

    LIFECYCLE = ["job.submit", "job.admit", "job.run", "job.settle"]

    @needs_openssl
    def test_job_over_tls_yields_one_complete_trace(self, platform, tls_material):
        """A job submitted over the TLS gateway produces a single trace —
        gateway.request → router.job.submit → submit/admit/run/settle —
        sharing the trace ID minted at the API boundary, retrievable via
        ``obs.trace`` and streamed live as ``trace.span`` pushes through
        ``events.subscribe``."""
        gateway = ApiGateway(
            ApiRouter(platform.access_server),
            tls_context=server_tls_context(tls_material),
        )
        gateway.start()
        try:
            with self._client(gateway, tls_material) as client:
                stream = client.events(topic_prefix="trace.", timeout_s=10.0)
                job = client.submit_job("traced-over-tls", "noop")
                with gateway.router_lock:  # serialize with gateway requests
                    platform.run_queue()

                view = client.obs_trace(job_id=job.job_id)
                assert view.job_id == job.job_id
                names = [span.name for span in view.spans]
                assert names == [
                    "job.submit",
                    "router.job.submit",
                    "gateway.request",
                    "job.admit",
                    "job.run",
                    "job.settle",
                ]
                assert all(span.trace_id == view.trace_id for span in view.spans)
                # Lifecycle spans hang off the submit span of the trace.
                submit = view.spans[0]
                by_name = {span.name: span for span in view.spans}
                for name in ("job.admit", "job.run", "job.settle"):
                    assert by_name[name].parent_id == submit.span_id
                # The boundary span knows which op it wrapped.
                assert by_name["gateway.request"].attrs.get("op") == "job.submit"

                # The same spans arrived as live pushes on the trace. topic.
                pushed = []
                for frame in stream:
                    if frame.topic == "trace.span":
                        pushed.append(frame.payload.get("name"))
                    if frame.payload.get("name") == "job.settle":
                        break
                for name in self.LIFECYCLE:
                    assert name in pushed
                stream.close()
        finally:
            gateway.stop()

    def _client(self, gateway, material):
        host, port = gateway.address
        return BatteryLabClient(
            JsonLinesTransport(
                host,
                port,
                timeout_s=10.0,
                tls_context=client_tls_context(material),
            ),
            "experimenter",
            "experimenter-token",
        )
