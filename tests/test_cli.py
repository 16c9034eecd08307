"""Tests for the command-line interface.

``tests/data/cli_flags.json`` pins every subcommand and flag (help text
aside); after adding or changing one on purpose, rewrite it with::

    PYTHONPATH=src python tests/test_cli.py
"""

import argparse
import json
import logging
from pathlib import Path

import pytest

from repro.cli import build_parser, main

FLAGS = Path(__file__).resolve().parent / "data" / "cli_flags.json"


def flag_inventory() -> dict:
    """Each parser's actions as JSON: the top-level parser under ``""``,
    then every subcommand; help text is left out."""
    parser = build_parser()
    (commands,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    parsers = {"": parser, **commands.choices}
    inventory = {
        name: [
            {
                "option_strings": action.option_strings,
                "dest": action.dest,
                "default": action.default,
                "type": getattr(action.type, "__name__", None),
                "choices": None if action.choices is None else list(action.choices),
                "required": action.required,
                "nargs": action.nargs,
                "const": action.const,
                "metavar": action.metavar,
            }
            for action in sub._actions
        ]
        for name, sub in parsers.items()
    }
    return json.loads(json.dumps(inventory))


def test_every_subcommand_and_flag_is_kept():
    golden = json.loads(FLAGS.read_text(encoding="utf-8"))
    inventory = flag_inventory()
    assert list(inventory) == list(golden)
    for name, actions in golden.items():
        assert inventory[name] == actions, name


class TestLogLevel:
    @pytest.fixture(autouse=True)
    def restore_root_logger(self):
        root = logging.getLogger()
        level, handlers = root.level, list(root.handlers)
        yield
        root.setLevel(level)
        root.handlers[:] = handlers

    def test_a_known_level_configures_logging(self, capsys):
        assert main(["--log-level", "DEBUG", "locations"]) == 0
        assert logging.getLogger().level == logging.DEBUG
        assert "Bunkyo" in capsys.readouterr().out

    def test_an_unknown_level_exits_2(self, capsys):
        assert main(["--log-level", "LOUD", "locations"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown log level 'LOUD'\n"


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

    @staticmethod
    def table(output):
        """A rendered table's title, column names and data rows."""
        title, header, rule, *rows = output.strip().splitlines()
        assert set(rule) <= {"-", " "}
        return title, header.split(), rows

    def test_figure5(self, capsys):
        assert main(["figure5", "--repetitions", "1"]) == 0
        title, columns, rows = self.table(capsys.readouterr().out)
        assert title == "Figure 5 — controller CPU utilisation"
        assert columns == [
            "mirroring", "median_cpu_percent", "p90_cpu_percent",
            "fraction_above_95", "samples",
        ]
        assert [row.split()[0] for row in rows] == ["False", "True"]

    def test_figure6(self, capsys):
        assert main(["figure6", "--repetitions", "1"]) == 0
        title, columns, rows = self.table(capsys.readouterr().out)
        assert title == "Figure 6 — discharge per VPN location"
        assert columns == [
            "location", "browser", "mean_discharge_mah", "std_discharge_mah",
            "mean_bytes_mb",
        ]
        assert len(rows) == 10  # five locations, Brave and Chrome each
        assert {row.split()[1] for row in rows} == {"brave", "chrome"}

    def test_sysperf(self, capsys):
        assert main(["sysperf"]) == 0
        title, columns, rows = self.table(capsys.readouterr().out)
        assert title == "System performance (Section 4.2)"
        assert columns == ["metric", "value"]
        assert len(rows) == 10
        assert rows[0].startswith("controller CPU, no mirroring (%)")

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

    @pytest.mark.parametrize("command", ["submit", "watch"])
    def test_job_behind_a_recovered_backlog_runs(self, tmp_path, capsys, command):
        """A one-shot command runs the queue dry: a job behind more than one
        dispatch batch of recovered jobs still runs before the command exits."""
        from repro.core.platform import build_default_platform

        state = str(tmp_path / "state")
        platform = build_default_platform(seed=7, browsers=("chrome",), state_dir=state)
        client = platform.client()
        backlog = [client.submit_job(f"backlog-{index}", "noop") for index in range(150)]
        platform.persistence.close()
        if command == "submit":
            argv = ["submit", "--name", "mine", "--payload", "noop"]
            title = "After dispatch"
        else:
            argv = ["watch", "--job-id", str(backlog[-1].job_id)]
            title = "Final state"
        assert main(["--state-dir", state, *argv]) == 0
        output = capsys.readouterr().out
        assert title in output
        assert "completed" in output.split(title, 1)[1]

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


class TestAdminSubcommands:
    """approve/reject/grant/register-vp/metrics against a local --state-dir."""

    @pytest.fixture()
    def pending(self, tmp_path):
        """A state dir holding two pipeline-change jobs awaiting approval."""
        from repro.core.platform import build_default_platform

        state = str(tmp_path / "state")
        platform = build_default_platform(seed=7, browsers=("chrome",), state_dir=state)
        client = platform.client()
        ids = [
            client.submit_job(name, "noop", is_pipeline_change=True).job_id
            for name in ("change-a", "change-b")
        ]
        platform.persistence.close()
        return state, ids

    def test_approve_runs_the_job(self, pending, capsys):
        import re

        state, (job_id, _) = pending
        assert main(["--state-dir", state, "approve", "--job-id", str(job_id)]) == 0
        output = capsys.readouterr().out
        assert output.startswith("Approved (Platform API v2)\n")
        assert re.search(
            rf"^{job_id}\s+change-a\s+experimenter\s+completed\s+0\.00\s+node1\s+node1-dev00",
            output,
            re.MULTILINE,
        )

    def test_reject_cancels_the_job_and_is_journaled(self, pending, capsys):
        import re

        state, (_, job_id) = pending
        argv = ["reject", "--job-id", str(job_id), "--reason", "unsafe"]
        assert main(["--state-dir", state, *argv]) == 0
        output = capsys.readouterr().out
        assert output.startswith("Rejected (Platform API v2)\n")
        row = rf"^{job_id}\s+change-b\s+experimenter\s+cancelled\s+0\.00\s+-\s+-"
        assert re.search(row, output, re.MULTILINE)
        assert main(["--state-dir", state, "status", "--jobs"]) == 0
        assert re.search(
            rf"^{job_id}\s+change-b\s+\S+\s+cancelled", capsys.readouterr().out,
            re.MULTILINE,
        )

    def test_grant_adds_to_a_journaled_ledger(self, tmp_path, capsys):
        import re

        state = str(tmp_path / "state")
        argv = ["grant", "--owner", "experimenter", "--amount", "2.5", "--note", "pilot"]
        assert main(["--state-dir", state, *argv]) == 0
        output = capsys.readouterr().out
        assert output.startswith("Credits granted (Platform API v2)\n")
        header = r"owner\s+balance_device_hours\s+contributes_hardware\s+transactions"
        assert re.search(header, output)
        assert re.search(r"^experimenter\s+7\.50\s+False\s+2\s*$", output, re.MULTILINE)
        # A second run recovers the ledger and adds to it.
        assert main(["--state-dir", state, "grant", "--owner", "experimenter",
                     "--amount", "1"]) == 0
        output = capsys.readouterr().out
        assert re.search(r"^experimenter\s+8\.50\s+False\s+3\s*$", output, re.MULTILINE)

    def test_register_vp_lists_the_new_devices(self, tmp_path, capsys):
        import re

        state = str(tmp_path / "state")
        argv = ["register-vp", "--name", "node9", "--institution", "MIT", "--devices", "2"]
        assert main(["--state-dir", state, *argv]) == 0
        output = capsys.readouterr().out
        assert output.startswith("Vantage point registered (Platform API v2)\n")
        rows = re.findall(
            r"^node9\s+MIT\s+node9\.batterylab\.dev\s+(node9-dev\d\d)\s+False",
            output,
            re.MULTILINE,
        )
        assert rows == ["node9-dev00", "node9-dev01"]

    def test_metrics_renders_the_prefixed_families(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["--state-dir", state, "submit", "--name", "j"]) == 0
        capsys.readouterr()
        assert main(["--state-dir", state, "metrics", "--prefix", "journal_"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "# TYPE journal_checkpoint_failures_total counter" in lines
        assert "journal_checkpoint_failures_total 0" in lines
        assert "# TYPE journal_append_seconds histogram" in lines
        assert 'journal_append_seconds_bucket{le="+Inf"} 0' in lines
        assert all(
            line.startswith(("# TYPE journal_", "journal_")) for line in lines
        ), lines

    def test_metrics_with_no_matching_family_says_so(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["--state-dir", state, "metrics", "--prefix", "nosuch_"]) == 0
        assert capsys.readouterr().out == (
            "# no metric families matched prefix 'nosuch_'\n"
        )


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
            "0 compaction(s), 1 fsync(s)" in output
        )


if __name__ == "__main__":
    FLAGS.write_text(json.dumps(flag_inventory(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FLAGS}")
