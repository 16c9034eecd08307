"""The soak harness end to end, at test scale, plus the ``repro chaos`` CLI.

The acceptance-sized run (100k+ jobs) lives in
``benchmarks/bench_chaos_soak.py``; these smokes shrink the same harness
to a few hundred jobs so CI exercises every moving part — fault-free
baseline, the kitchen-sink scenario (device death + power cycle +
partition + server crash-kill), an agent-outbox crash, credits, and the
determinism contract that a seed fully reproduces a run.
"""

import json

import pytest

from repro.chaos import (
    ScenarioBuilder,
    SoakConfig,
    SoakHarness,
    run_soak,
)
from repro.cli import main


def small_config(**overrides):
    overrides.setdefault("jobs", 300)
    overrides.setdefault("batch", 50)
    overrides.setdefault("seed", 7)
    return SoakConfig(**overrides)


class TestSoakConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SoakConfig(jobs=0)
        with pytest.raises(ValueError):
            SoakConfig(batch=0)
        with pytest.raises(ValueError):
            SoakConfig(agent_job_fraction=1.5)
        with pytest.raises(ValueError):
            SoakConfig(vantage_points=0)

    def test_snapshot_interval_scales_with_run_size(self):
        # A checkpoint serialises every job: a fixed interval would make
        # total checkpoint cost quadratic in run size.
        small = SoakConfig(jobs=1_000)
        large = SoakConfig(jobs=1_000_000)
        assert small.effective_snapshot_every == 5_000
        assert large.effective_snapshot_every == 750_000
        assert SoakConfig(jobs=1_000, snapshot_every=42).effective_snapshot_every == 42

    def test_topology_is_derivable_without_a_platform(self):
        config = SoakConfig(vantage_points=2, devices_per_vp=2)
        assert config.devices() == [
            ("node1", "node1-dev00"),
            ("node1", "node1-dev01"),
            ("node2", "node2-dev00"),
            ("node2", "node2-dev01"),
        ]


class TestSoakRuns:
    def test_fault_free_baseline_completes_everything(self, tmp_path):
        result = run_soak(small_config(
            scenario=None, state_dir=str(tmp_path), agents=0
        ))
        assert result.ok, result.summary()
        assert result.metrics["completed"] == 300
        assert result.metrics["failed"] == 0
        assert result.metrics["acked"] == 300
        names = [c["name"] for c in result.report.to_dict()["checks"]]
        assert names == [
            "no_lost_jobs",
            "no_double_execution",
            "device_hold_conservation",
            "history_bounded",
            "analytics_live_equals_replay",
            "recovery_byte_identical",
            "snapshot_equals_fresh_encode",
        ]

    def test_kitchen_sink_smoke_survives_every_fault_family(self, tmp_path):
        result = run_soak(small_config(
            jobs=600, state_dir=str(tmp_path), agents=1
        ))
        assert result.ok, result.summary()
        # The scenario crash-killed the server at least once and the
        # fault plane actually fired device/power orders.
        assert result.metrics["server_crashes"] >= 1
        assert sum(result.metrics["faults_fired"].values()) > 0
        assert result.metrics["completed"] + result.metrics["failed"] == 600
        assert result.metrics["failed"] > 0  # injected faults fail jobs

    def test_agent_crash_scenario_resumes_from_the_outbox(self, tmp_path):
        builder = ScenarioBuilder("agent-crash")
        builder.at(2.0).crash_agent("agent-0", at_append=1, mode="after")
        result = run_soak(small_config(
            jobs=200,
            scenario=builder.build(),
            state_dir=str(tmp_path),
            agents=1,
            agent_job_fraction=0.5,
        ))
        assert result.ok, result.summary()
        assert result.metrics["agent_crashes"] == 1
        # A job caught in flight by the kill may legitimately re-run in
        # the next epoch; within an epoch the ledger stayed clean.
        assert result.metrics["crash_reruns"] <= 1

    def test_partition_scenario_retries_under_idempotency_keys(self, tmp_path):
        # The canned "partition" cuts the *agent* plane; cutting the
        # submitter's own link is what exercises the retry/idempotency path.
        builder = ScenarioBuilder("client-partition")
        builder.at(2.0).partition("client", duration_s=2.0)
        result = run_soak(small_config(
            scenario=builder.build(), state_dir=str(tmp_path), agents=1
        ))
        assert result.ok, result.summary()
        assert result.metrics["dropped_requests"] > 0
        assert result.metrics["submit_retries"] > 0
        # Retries never doubled a submission: every index acked exactly once.
        assert result.metrics["acked"] == 300

    def test_credits_run_keeps_the_ledger_conserved(self, tmp_path):
        result = run_soak(small_config(
            jobs=150, credits=True, state_dir=str(tmp_path)
        ))
        assert result.ok, result.summary()
        names = [c["name"] for c in result.report.to_dict()["checks"]]
        assert "credit_conservation" in names

    def test_same_seed_reproduces_the_same_chaos(self, tmp_path):
        results = [
            run_soak(small_config(
                jobs=200, state_dir=str(tmp_path / f"run{i}"), agents=1
            ))
            for i in range(2)
        ]
        a, b = results
        assert a.ok and b.ok
        assert a.metrics["faults_fired"] == b.metrics["faults_fired"]
        assert a.metrics["completed"] == b.metrics["completed"]
        assert a.metrics["failed"] == b.metrics["failed"]
        assert a.metrics["server_crashes"] == b.metrics["server_crashes"]

    def test_summary_prints_the_reproduction_seed(self, tmp_path):
        result = run_soak(small_config(
            jobs=100, seed=99, scenario=None, state_dir=str(tmp_path), agents=0
        ))
        first = result.summary().splitlines()[0]
        assert "seed=99" in first
        assert "scenario=" in first


class TestChaosCli:
    def test_list_scenarios(self, capsys):
        assert main(["chaos", "--list-scenarios"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "kitchen-sink" in out
        assert "crash-recovery" in out

    def test_unknown_scenario_is_a_clean_usage_error(self, capsys):
        assert main(["chaos", "--scenario", "no-such-storm", "--jobs", "100"]) == 2
        err = capsys.readouterr().err
        assert "unknown canned scenario 'no-such-storm'" in err
        assert "Traceback" not in err

    def test_invalid_sizing_is_a_clean_usage_error(self, capsys):
        assert main(["chaos", "--scenario", "none", "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert "jobs must be at least 1" in err

    def test_small_canned_run_exits_zero_and_prints_verdicts(self, capsys, tmp_path):
        code = main([
            "--seed", "7", "--state-dir", str(tmp_path),
            "chaos", "--scenario", "kitchen-sink", "--jobs", "400",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "seed=7" in out
        assert "PASS  no_lost_jobs" in out
        assert "PASS  no_double_execution" in out
        assert "PASS  recovery_byte_identical" in out
        assert "PASS  snapshot_equals_fresh_encode" in out

    def test_scenario_file_via_at_syntax(self, capsys, tmp_path):
        builder = ScenarioBuilder("from-file")
        builder.at(1.0).power_cycle("node1", off_s=2.0)
        script = tmp_path / "scenario.json"
        script.write_text(builder.build().to_json(), encoding="utf-8")
        code = main([
            "--state-dir", str(tmp_path / "state"),
            "chaos", "--scenario", f"@{script}", "--jobs", "150",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "scenario='from-file'" in out

    def test_none_scenario_is_a_faultless_baseline(self, capsys, tmp_path):
        code = main([
            "--state-dir", str(tmp_path),
            "chaos", "--scenario", "none", "--jobs", "100", "--agents", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "failed: 0" in out
