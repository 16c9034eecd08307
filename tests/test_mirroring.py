"""Tests for the device-mirroring pipeline (scrcpy, VNC, noVNC, session, latency)."""

import pytest

from repro.device.android import AndroidDevice
from repro.device.apps import InstalledApp
from repro.device.profiles import SAMSUNG_J7_DUO
from repro.mirroring.latency import MirroringLatencyProbe
from repro.mirroring.novnc import NoVncError
from repro.mirroring.session import MirroringSession
from repro.mirroring.source import FrameSourceError, ScrcpyClient
from repro.mirroring.vnc import VncServer
from repro.simulation.random import SeededRandom
import dataclasses


@pytest.fixture
def busy_device(context, device) -> AndroidDevice:
    """A device with a foreground app that keeps the screen active."""
    device.connect_wifi("batterylab")
    device.install_app(InstalledApp(package="com.video", label="Video"))
    device.packages.launch("com.video").set_activity(cpu_percent=10.0, screen_fps=30.0)
    device.refresh_demands()
    return device


class TestScrcpyClient:
    def test_start_requires_supported_device(self, context):
        old_profile = dataclasses.replace(SAMSUNG_J7_DUO, api_level=19, model="Old Phone")
        old_device = AndroidDevice(context, serial="old", profile=old_profile)
        with pytest.raises(FrameSourceError):
            ScrcpyClient(old_device).start()

    def test_start_stop_toggles_device_server(self, busy_device):
        client = ScrcpyClient(busy_device, bitrate_mbps=1.0)
        client.start()
        assert busy_device.mirroring_active
        client.stop()
        assert not busy_device.mirroring_active

    def test_stream_capped_at_bitrate(self, busy_device):
        client = ScrcpyClient(busy_device, bitrate_mbps=1.0)
        client.start()
        assert 0.0 < client.current_stream_mbps() <= 1.0

    def test_fps_scales_with_activity(self, busy_device):
        client = ScrcpyClient(busy_device, bitrate_mbps=1.0)
        client.start()
        assert client.current_fps() == pytest.approx(15.0, rel=0.1)

    def test_account_interval_accumulates(self, busy_device):
        client = ScrcpyClient(busy_device)
        client.start()
        client.account_interval(10.0)
        assert client.counters.frames > 0
        assert client.counters.bytes > 0
        assert client.counters.bytes <= client.bitrate_mbps * 1e6 / 8.0 * 10.0
        with pytest.raises(ValueError):
            client.account_interval(-1.0)

    def test_idle_client_costs_nothing(self, busy_device):
        client = ScrcpyClient(busy_device)
        assert client.controller_cpu_percent() == 0.0
        assert client.current_stream_mbps() == 0.0

    def test_invalid_parameters(self, busy_device):
        with pytest.raises(ValueError):
            ScrcpyClient(busy_device, bitrate_mbps=0)


class TestVncAndNoVnc:
    def test_vnc_ports_follow_display_number(self):
        assert VncServer(display=2).port == 5902
        with pytest.raises(ValueError):
            VncServer(display=0)

    def test_vnc_accounts_framebuffer_updates(self, busy_device):
        client = ScrcpyClient(busy_device)
        client.start()
        vnc = VncServer()
        vnc.start(client)
        client.account_interval(10.0)
        assert vnc.framebuffer_updates == client.counters.frames > 0
        assert vnc.controller_cpu_percent() > 0
        vnc.stop()
        assert vnc.controller_cpu_percent() == 0.0

    def test_novnc_viewer_lifecycle(self, context, busy_device):
        session = MirroringSession(context, ScrcpyClient(busy_device))
        session.start()
        viewer = session.connect_viewer("alice", role="experimenter")
        assert session.novnc.viewer_count() == 1
        session.novnc.deliver_input(viewer.session_id, "keyevent KEYCODE_HOME")
        assert viewer.input_events == 1
        session.novnc.disconnect_viewer(viewer.session_id)
        with pytest.raises(NoVncError):
            session.novnc.disconnect_viewer(viewer.session_id)

    def test_novnc_rejects_viewers_when_stopped(self, context, busy_device):
        session = MirroringSession(context, ScrcpyClient(busy_device))
        with pytest.raises(NoVncError):
            session.novnc.connect_viewer("alice")

    def test_toolbar_visibility_for_testers(self, context, busy_device):
        session = MirroringSession(context, ScrcpyClient(busy_device))
        session.start()
        session.novnc.toolbar.hide()
        tester = session.connect_viewer("bob", role="tester")
        experimenter = session.connect_viewer("alice", role="experimenter")
        assert not tester.toolbar_visible
        assert experimenter.toolbar_visible
        assert "batt_switch" in session.novnc.toolbar.buttons


class TestMirroringSession:
    def test_session_lifecycle_and_accounting(self, context, busy_device):
        session = MirroringSession(context, ScrcpyClient(busy_device, bitrate_mbps=1.0))
        session.start()
        session.connect_viewer("alice")
        context.run_for(60.0)
        assert session.active
        assert session.duration_s == pytest.approx(60.0, abs=1.0)
        assert session.upload_bytes() > 0
        assert session.controller_cpu_percent() > 0
        assert session.controller_memory_mb() > 0
        session.stop()
        assert not session.active
        assert session.controller_cpu_percent() == 0.0
        assert session.controller_memory_mb() == 0.0

    def test_upload_requires_viewer(self, context, busy_device):
        session = MirroringSession(context, ScrcpyClient(busy_device))
        session.start()
        context.run_for(30.0)
        assert session.upload_bytes() == 0

    def test_double_start_and_stop_are_idempotent(self, context, busy_device):
        session = MirroringSession(context, ScrcpyClient(busy_device))
        session.start()
        session.start()
        session.stop()
        session.stop()
        assert not busy_device.mirroring_active

    def test_status(self, context, busy_device):
        session = MirroringSession(context, ScrcpyClient(busy_device))
        session.start()
        status = session.status()
        assert status["device"] == busy_device.serial
        assert status["active"] is True


class TestLatencyProbe:
    def test_reproduces_paper_latency(self):
        probe = MirroringLatencyProbe(SeededRandom(11, "latency"), network_rtt_ms=1.0)
        summary = probe.run(40)
        assert summary.trials == 40
        assert summary.mean_s == pytest.approx(1.44, abs=0.15)
        assert 0.03 < summary.std_s < 0.3
        assert len(probe.measurements) == 40

    def test_network_rtt_adds_to_latency(self):
        near = MirroringLatencyProbe(SeededRandom(1, "l"), network_rtt_ms=1.0).run(30)
        far = MirroringLatencyProbe(SeededRandom(1, "l"), network_rtt_ms=200.0).run(30)
        assert far.mean_s > near.mean_s + 0.3

    def test_controller_load_slows_pipeline(self):
        light = MirroringLatencyProbe(SeededRandom(2, "l"), controller_load_factor=1.0).run(30)
        loaded = MirroringLatencyProbe(SeededRandom(2, "l"), controller_load_factor=2.0).run(30)
        assert loaded.mean_s > light.mean_s

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MirroringLatencyProbe(SeededRandom(1, "l"), network_rtt_ms=-1.0)
        with pytest.raises(ValueError):
            MirroringLatencyProbe(SeededRandom(1, "l"), controller_load_factor=0.0)
        probe = MirroringLatencyProbe(SeededRandom(1, "l"))
        with pytest.raises(ValueError):
            probe.run(0)
        with pytest.raises(RuntimeError):
            probe.summary()

    def test_breakdown_sums_to_total(self):
        probe = MirroringLatencyProbe(SeededRandom(3, "l"))
        measurement = probe.run_trial(0)
        assert sum(measurement.stage_breakdown_s.values()) == pytest.approx(measurement.total_s)
