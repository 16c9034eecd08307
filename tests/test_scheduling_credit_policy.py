"""Tests for the credit-aware scheduling policy (``--scheduling-policy credit``)."""

import pytest

from repro.accessserver.jobs import Job, JobSpec
from repro.accessserver.policies import (
    CreditSharePolicy,
    DispatchStats,
    create_policy,
    policy_names,
)
from repro.accessserver.scheduler import JobScheduler
from repro.core.platform import build_default_platform


def _job(name: str, owner: str) -> Job:
    return Job(spec=JobSpec(name=name, owner=owner, run=lambda ctx: None))


class TestCreditSharePolicyOrdering:
    def test_registered_and_creatable(self):
        assert "credit" in policy_names()
        assert isinstance(create_policy("credit"), CreditSharePolicy)

    def test_higher_balance_drains_faster(self):
        jobs = [_job(f"{owner}-{i}", owner) for i in range(3) for owner in ("rich", "poor")]
        stats = DispatchStats(
            credit_balance_by_owner={"rich": 10.0, "poor": 1.0}
        )
        ordered = CreditSharePolicy().order(jobs, stats)
        names = [job.spec.name for job in ordered]
        # rich (weight 10) pays 0.1/slot, poor (weight 1) pays 1.0/slot:
        # all of rich's jobs clear before poor's first slot costs less.
        assert names == ["rich-0", "rich-1", "rich-2", "poor-0", "poor-1", "poor-2"]

    def test_without_balances_reduces_to_fair_share_interleaving(self):
        jobs = [_job(f"{owner}-{i}", owner) for i in range(2) for owner in ("a", "b")]
        ordered = CreditSharePolicy().order(jobs, DispatchStats())
        assert [job.spec.name for job in ordered] == ["a-0", "b-0", "a-1", "b-1"]

    def test_running_jobs_count_against_an_owner(self):
        jobs = [_job("busy-0", "busy"), _job("idle-0", "idle")]
        stats = DispatchStats(running_by_owner={"busy": 3})
        ordered = CreditSharePolicy().order(jobs, stats)
        assert [job.spec.name for job in ordered] == ["idle-0", "busy-0"]

    def test_zero_balance_owner_goes_last_not_crashes(self):
        jobs = [_job("drained-0", "drained"), _job("funded-0", "funded")]
        stats = DispatchStats(
            credit_balance_by_owner={"drained": 0.0, "funded": 2.0}
        )
        ordered = CreditSharePolicy().order(jobs, stats)
        assert [job.spec.name for job in ordered] == ["funded-0", "drained-0"]

    def test_is_a_permutation(self):
        jobs = [_job(f"j{i}", f"owner{i % 3}") for i in range(10)]
        stats = DispatchStats(credit_balance_by_owner={"owner0": 5.0})
        ordered = CreditSharePolicy().order(jobs, stats)
        assert sorted(id(j) for j in ordered) == sorted(id(j) for j in jobs)


class TestCreditPolicyIntegration:
    def test_scheduler_accepts_credit_policy(self):
        scheduler = JobScheduler(policy="credit")
        assert scheduler.policy.name == "credit"

    def test_ledger_balances_reach_the_dispatcher(self):
        platform = build_default_platform(
            seed=5, browsers=("chrome",), scheduling_policy="credit"
        )
        server = platform.access_server
        ledger = server.accounts.enable_credit_system(initial_grant_device_hours=5.0)
        server.users.add_user("rich", "experimenter", "rich-token")
        server.users.add_user("poor", "experimenter", "poor-token")
        ledger.open_account("rich", now=0.0)
        ledger.open_account("poor", now=0.0)
        ledger.adjust("rich", 95.0, now=0.0)  # 100 vs 5 device-hours

        rich = platform.client(username="rich", token="rich-token")
        poor = platform.client(username="poor", token="poor-token")
        executed_names = []
        for index in range(2):
            poor.submit_job(f"poor-{index}", "noop", timeout_s=60.0)
            rich.submit_job(f"rich-{index}", "noop", timeout_s=60.0)
        for job in platform.run_queue():
            executed_names.append(job.spec.name)
        # One device executes sequentially; the credit weights order the
        # queue so the well-funded owner drains first despite submitting
        # second.
        assert executed_names == ["rich-0", "rich-1", "poor-0", "poor-1"]

    def test_default_policies_unaffected(self):
        platform = build_default_platform(seed=5, browsers=("chrome",))
        assert platform.access_server.scheduler.policy.name == "fifo"


class TestCliExposesCreditPolicy:
    def test_parser_accepts_credit(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["--scheduling-policy", "credit", "quickstart"])
        assert args.scheduling_policy == "credit"

    def test_build_default_platform_accepts_credit(self):
        platform = build_default_platform(
            seed=3, browsers=("chrome",), scheduling_policy="credit"
        )
        assert platform.access_server.scheduler.policy.name == "credit"
