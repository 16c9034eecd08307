"""Orphaned jobs: waiting jobs pinned to a vantage point that is not registered.

Jobs journaled against a vantage point that has not re-registered are
first-class after recovery: ``RecoveryReport.orphaned_jobs`` lists them at
recovery time, ``AccessServer.status()`` / the API ``StatusView`` keep
reporting them live, and re-registering the topology clears the report and
lets the jobs dispatch.  The same view holds on a live server, where it is
read off the queue's constraint buckets and the approval queue
(``Accounts.orphaned_jobs``).
"""

import pytest

from repro.accessserver.jobs import JobConstraints, JobSpec
from repro.accessserver.payloads import noop_payload
from repro.core.platform import add_vantage_point, build_default_platform


def _platform(state_dir, with_node2: bool, seed: int = 9):
    platform = build_default_platform(
        seed=seed, browsers=("chrome",), state_dir=str(state_dir)
    )
    if with_node2:
        add_vantage_point(
            platform, "node2", "Example University", browsers=("chrome",)
        )
    return platform


class TestOrphanedJobReporting:
    def test_recovery_reports_and_status_surfaces_orphans(self, tmp_path):
        state = tmp_path / "state"
        first = _platform(state, with_node2=True)
        client = first.client()
        pinned = client.submit_job("needs-node2", "noop", vantage_point="node2")
        roaming = client.submit_job("anywhere", "noop", vantage_point=None)
        # neither job runs before the "crash"

        second = _platform(state, with_node2=False)
        report = second.persistence.last_recovery
        assert report is not None
        assert report.jobs_queued == 2
        assert "node2" in report.missing_vantage_points
        assert report.orphaned_jobs == [pinned.job_id]

        status = second.client().server_status()
        assert status.orphaned_jobs == [pinned.job_id]
        assert status.orphaned_vantage_points == ["node2"]
        assert status.queued_jobs == 2

        # the unpinned job still dispatches on node1
        executed = second.run_queue()
        assert [job.spec.name for job in executed] == ["anywhere"]
        assert roaming.job_id not in second.client().server_status().orphaned_jobs

    def test_reregistering_topology_clears_orphans_and_dispatches(self, tmp_path):
        state = tmp_path / "state"
        first = _platform(state, with_node2=True)
        pinned = first.client().submit_job("needs-node2", "noop", vantage_point="node2")

        second = _platform(state, with_node2=False)
        assert second.client().server_status().orphaned_jobs == [pinned.job_id]

        add_vantage_point(second, "node2", "Example University", browsers=("chrome",))
        status = second.client().server_status()
        assert status.orphaned_jobs == []
        assert status.orphaned_vantage_points == []
        executed = second.run_queue()
        assert [job.spec.name for job in executed] == ["needs-node2"]
        assert second.client().job_status(pinned.job_id).status == "completed"

    def test_no_orphans_without_pinned_jobs(self, tmp_path):
        state = tmp_path / "state"
        first = _platform(state, with_node2=False)
        first.client().submit_job("plain", "noop")

        second = _platform(state, with_node2=False)
        assert second.persistence.last_recovery.orphaned_jobs == []
        assert second.client().server_status().orphaned_jobs == []

    def test_fresh_platform_reports_no_orphans(self):
        platform = build_default_platform(seed=9, browsers=("chrome",))
        status = platform.access_server.status()
        assert status["orphaned_jobs"] == []
        assert status["orphaned_vantage_points"] == []


class TestLiveOrphans:
    """Orphans derived from the queue, without recovery in the picture."""

    @pytest.fixture()
    def bare(self):
        return build_default_platform(
            seed=9, browsers=("chrome",), persistence=False, analytics=False
        )

    @staticmethod
    def submit(platform, name, vantage_point=None, **spec):
        user = platform.experimenter
        return platform.access_server.submit_job(
            user,
            JobSpec(
                name,
                user.username,
                noop_payload,
                constraints=JobConstraints(vantage_point=vantage_point),
                **spec,
            ),
        )

    @staticmethod
    def orphan_gauge(server):
        gauges = server.obs.registry.snapshot()["gauges"]
        return next(g["value"] for g in gauges if g["name"] == "orphaned_jobs")

    def test_lifecycle_of_a_live_orphan(self, bare):
        server = bare.access_server
        pinned = self.submit(bare, "pinned", "nowhere")
        self.submit(bare, "roaming")
        change = self.submit(bare, "change", "nowhere", is_pipeline_change=True)
        assert [job.job_id for job in server.accounts.orphaned_jobs()] == [
            pinned.job_id,
            change.job_id,
        ]
        assert server.status()["orphaned_vantage_points"] == ["nowhere"]
        assert self.orphan_gauge(server) == 2.0

        server.scheduler.cancel(pinned.job_id)
        assert server.accounts.orphaned_jobs() == [change]

        later = self.submit(bare, "later", "nowhere")
        assert server.accounts.orphaned_jobs() == [change, later]
        add_vantage_point(bare, "nowhere", "Example University", browsers=("chrome",))
        assert server.accounts.orphaned_jobs() == []
        assert server.status()["orphaned_jobs"] == []
        assert self.orphan_gauge(server) == 0.0

    def test_status_never_walks_a_queue_without_pinned_buckets(self, bare, monkeypatch):
        server = bare.access_server
        for index in range(10_000):
            self.submit(bare, f"job-{index}")
        queue = server.scheduler.queue
        walks = []
        jobs = queue.jobs

        def counted(*args, **kwargs):
            walks.append(args)
            return jobs(*args, **kwargs)

        monkeypatch.setattr(queue, "jobs", counted)
        status = server.status()
        server.obs.registry.snapshot()
        assert status["queued_jobs"] == 10_000
        assert status["orphaned_jobs"] == []
        assert walks == []
