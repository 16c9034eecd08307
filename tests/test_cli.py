"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_seed_option(self):
        args = build_parser().parse_args(["--seed", "42", "locations"])
        assert args.seed == 42
        assert args.command == "locations"


class TestCommands:
    def test_locations(self, capsys):
        assert main(["locations"]) == 0
        output = capsys.readouterr().out
        assert "Bunkyo" in output and "Santa Clara" in output

    def test_quickstart(self, capsys):
        assert main(["--seed", "3", "quickstart"]) == 0
        output = capsys.readouterr().out
        assert "median_ma" in output
        assert "node1-dev00" in output

    def test_figure2(self, capsys):
        assert main(["figure2", "--duration", "20", "--sample-rate", "100"]) == 0
        output = capsys.readouterr().out
        assert "relay-mirroring" in output

    def test_figure3(self, capsys):
        assert main(["figure3", "--repetitions", "1", "--scrolls", "4"]) == 0
        output = capsys.readouterr().out
        assert "Figure 3" in output and "Figure 4" in output
        assert "firefox" in output

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "Johannesburg" in output

    def test_seed_changes_nothing_structural(self, capsys):
        assert main(["--seed", "11", "locations"]) == 0
        first = capsys.readouterr().out
        assert main(["--seed", "99", "locations"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestApiSubcommands:
    """submit/status/cancel/fleet drive the platform through the v1 client."""

    def test_submit_runs_the_job(self, capsys):
        assert main(["submit", "--name", "smoke", "--payload", "noop"]) == 0
        output = capsys.readouterr().out
        assert "Submitted (Platform API v1)" in output
        assert "completed" in output

    def test_fleet_lists_devices(self, capsys):
        assert main(["fleet"]) == 0
        output = capsys.readouterr().out
        assert "node1-dev00" in output
        assert "Imperial College London" in output

    def test_status_reports_api_version(self, capsys):
        assert main(["status"]) == 0
        output = capsys.readouterr().out
        assert "api_version" in output
        assert "orphaned_jobs" in output

    def test_durable_submit_status_cancel_flow(self, tmp_path, capsys):
        import re

        state = str(tmp_path / "state")
        assert main(["--state-dir", state, "submit", "--name", "nightly", "--no-run"]) == 0
        submitted = capsys.readouterr().out
        job_id = re.search(r"^(\d+)\s+nightly", submitted, re.MULTILINE).group(1)
        assert main(["--state-dir", state, "status", "--jobs"]) == 0
        output = capsys.readouterr().out
        assert "nightly" in output and "queued" in output
        assert main(["--state-dir", state, "cancel", "--job-id", job_id]) == 0
        assert "cancelled" in capsys.readouterr().out
        # a fresh recovery must see the cancellation: empty queue, job cancelled
        assert main(["--state-dir", state, "status", "--jobs"]) == 0
        final = capsys.readouterr().out
        assert re.search(r"queued_jobs\s+0", final)
        assert re.search(r"nightly\s+\S+\s+cancelled", final)

    def test_api_errors_exit_cleanly(self, capsys):
        assert main(["cancel", "--job-id", "99999"]) == 1
        captured = capsys.readouterr()
        assert "error [resource.not_found]" in captured.err
        assert main(["submit", "--name", "x", "--payload", "bogus"]) == 1
        assert "error [request.invalid]" in capsys.readouterr().err

    def test_scheduling_policy_choices_include_credit(self):
        args = build_parser().parse_args(["--scheduling-policy", "credit", "fleet"])
        assert args.scheduling_policy == "credit"

    def test_report_renders_operations_tables(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["--state-dir", state, "submit", "--name", "ops"]) == 0
        capsys.readouterr()
        assert main(["--state-dir", state, "report", "--bucket-s", "60"]) == 0
        output = capsys.readouterr().out
        assert "Fleet summary (analytics.report)" in output
        assert "Job flow percentiles" in output
        assert "Fleet throughput" in output

    def test_report_cold_replays_a_state_dir(self, tmp_path, capsys):
        """A later invocation's report covers the earlier run's journal."""
        import re

        state = str(tmp_path / "state")
        assert main(["--state-dir", state, "submit", "--name", "nightly"]) == 0
        capsys.readouterr()
        assert main(["--state-dir", state, "report"]) == 0
        output = capsys.readouterr().out
        assert re.search(r"submitted\s+1", output)
        assert re.search(r"completed\s+1", output)
        assert "nightly" not in output  # aggregates, not job listings
        assert "experimenter" in output  # the owners table

    def test_report_gateway_argument_validated(self, capsys):
        with pytest.raises(SystemExit):
            main(["report", "--gateway", "not-an-address"])

    def test_report_gateway_over_tls(self, tmp_path, capsys):
        """report --gateway --cert-dir reaches a 'serve --tls' gateway."""
        from repro.accessserver.certificates import openssl_available
        from repro.core.platform import build_default_platform

        if not openssl_available():
            pytest.skip("the openssl binary is required to mint TLS material")
        cert_dir = str(tmp_path / "tls")
        platform = build_default_platform(seed=3, browsers=("chrome",))
        client = platform.client()
        client.submit_job("tls-job", "noop")
        platform.run_queue()
        gateway = platform.serve_gateway(tls_cert_dir=cert_dir)
        host, port = gateway.address
        try:
            assert (
                main(
                    [
                        "report",
                        "--gateway",
                        f"{host}:{port}",
                        "--cert-dir",
                        cert_dir,
                    ]
                )
                == 0
            )
            output = capsys.readouterr().out
            assert "Fleet summary (analytics.report)" in output
        finally:
            gateway.stop()

    def test_report_as_admin_sees_every_owner(self, tmp_path, capsys):
        """--username admin unlocks the full owners table locally (the
        bootstrap token is derived, no --token needed)."""
        state = str(tmp_path / "state")
        assert main(["--state-dir", state, "submit", "--name", "job"]) == 0
        capsys.readouterr()
        assert main(["--state-dir", state, "report", "--username", "admin"]) == 0
        output = capsys.readouterr().out
        assert "experimenter" in output  # another owner's row, admin-only

    def test_status_surfaces_journal_health(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["--state-dir", state, "submit", "--name", "j", "--no-run"]) == 0
        capsys.readouterr()
        assert main(["--state-dir", state, "status"]) == 0
        output = capsys.readouterr().out
        assert "journal_records" in output
        assert "records_since_snapshot" in output


class TestAgentCommand:
    """``repro agent`` when the gateway goes away after registration."""

    def _run_after_gateway_loss(self, monkeypatch, tmp_path, *flags):
        import threading

        from repro.agent import AgentDaemon
        from repro.core.platform import build_default_platform

        platform = build_default_platform(seed=3, browsers=("chrome",))
        gateway = platform.serve_gateway()
        host, port = gateway.address
        register = AgentDaemon.register

        def register_then_lose_the_gateway(daemon):
            view = register(daemon)
            gateway.stop()  # the port closes: every later request fails
            return view

        monkeypatch.setattr(AgentDaemon, "register", register_then_lose_the_gateway)
        argv = [
            "agent",
            "--gateway",
            f"{host}:{port}",
            "--outbox",
            str(tmp_path / "outbox.jsonl"),
            *flags,
        ]
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
        thread.start()
        thread.join(timeout=15.0)
        assert not thread.is_alive(), "the agent outlived its exit condition"
        return codes

    def test_duration_ends_an_agent_whose_gateway_is_unreachable(
        self, monkeypatch, tmp_path, capsys
    ):
        codes = self._run_after_gateway_loss(
            monkeypatch, tmp_path, "--duration-s", "0.2"
        )
        assert codes == [0]
        assert "no jobs settled" in capsys.readouterr().out

    def test_once_is_one_cycle_even_when_it_fails(
        self, monkeypatch, tmp_path, capsys
    ):
        assert self._run_after_gateway_loss(monkeypatch, tmp_path, "--once") == [0]
        assert "no jobs settled" in capsys.readouterr().out

    def test_an_unwritable_outbox_exits_before_anything_is_sent(
        self, monkeypatch, tmp_path
    ):
        """A job claimed against an outbox that cannot record it would sit
        leased to nobody: the path is opened before the client exists."""
        import os
        import subprocess
        import sys

        import repro.cli

        def no_client(args):
            raise AssertionError("a client was built before the outbox opened")

        monkeypatch.setattr(repro.cli, "_remote_or_local_client", no_client)
        outbox = str(tmp_path / "no" / "such" / "dir" / "x.jsonl")
        with pytest.raises(SystemExit) as exit_info:
            main(["agent", "--gateway", "127.0.0.1:9", "--outbox", outbox, "--once"])
        assert str(exit_info.value.code).startswith(f"error: cannot open outbox {outbox}")

        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "agent", "--gateway", "127.0.0.1:9",
             "--outbox", outbox, "--once"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1 and done.stdout == ""
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: cannot open outbox")

    def test_exit_summary_reports_the_outbox(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        argv = ["--state-dir", state, "submit", "--name", "pulled", "--execution", "agent"]
        assert main(argv) == 0
        outbox = tmp_path / "outbox.jsonl"
        argv = ["--state-dir", state, "agent", "--once", "--poll-wait-s", "0",
                "--outbox", str(outbox)]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "\nsettled jobs: [" in output
        assert (
            f"outbox: {outbox.stat().st_size} bytes, 0 pending lease(s), "
            "0 compaction(s)" in output
        )
