"""The shared fault vocabulary: crash plans, the fault plane, the ledger.

``repro.chaos.faults`` is the single vocabulary every plane's injection
hooks delegate to — the ``plan_crash`` of both append logs (the agent
outbox and the server journal) and the soak payload's device verdicts
all speak it.  These tests pin its semantics
down in isolation: crash modes and offsets, SIGKILL-like uncatchability,
FIFO device orders, power precedence, and the per-epoch execution
accounting behind the no-double-execution invariant.
"""

import pytest

from repro.chaos.faults import (
    CRASH_MODES,
    CrashPlan,
    ExecutionLedger,
    FaultPlane,
    InjectedFault,
    SimulatedCrash,
)


class TestSimulatedCrash:
    def test_is_not_an_ordinary_exception(self):
        """``except Exception`` must not swallow a kill -9 — nothing between
        the crash point and the harness may run."""
        assert issubclass(SimulatedCrash, BaseException)
        assert not issubclass(SimulatedCrash, Exception)
        with pytest.raises(SimulatedCrash):
            try:
                raise SimulatedCrash("kill -9")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("a daemon's error handling swallowed the crash")

    def test_injected_fault_is_survivable(self):
        assert issubclass(InjectedFault, RuntimeError)


class TestCrashPlan:
    def _writer(self, plan):
        written = []

        def write(label):
            plan.intercept(
                label,
                lambda: written.append(label),
                lambda: written.append(f"{label}:torn"),
            )

        return write, written

    def test_unarmed_plan_writes_everything(self):
        plan = CrashPlan()
        write, written = self._writer(plan)
        for i in range(5):
            write(f"r{i}")
        assert written == [f"r{i}" for i in range(5)]
        assert plan.writes == 5
        assert not plan.armed
        assert not plan.fired

    def test_before_mode_loses_the_targeted_write(self):
        plan = CrashPlan()
        write, written = self._writer(plan)
        plan.arm(2, "before")
        write("a")
        write("b")
        with pytest.raises(SimulatedCrash, match=r"before write 2 \(c\)"):
            write("c")
        assert written == ["a", "b"]
        assert plan.fired

    def test_after_mode_makes_the_write_durable_but_unacked(self):
        plan = CrashPlan()
        write, written = self._writer(plan)
        plan.arm(0, "after")
        with pytest.raises(SimulatedCrash, match=r"after write 0 \(a\)"):
            write("a")
        assert written == ["a"]

    def test_torn_mode_runs_the_torn_writer(self):
        plan = CrashPlan()
        write, written = self._writer(plan)
        plan.arm(1, "torn")
        write("a")
        with pytest.raises(SimulatedCrash, match=r"torn write 1 \(b\)"):
            write("b")
        assert written == ["a", "b:torn"]

    def test_torn_without_torn_writer_degrades_to_before(self):
        plan = CrashPlan()
        plan.arm(0, "torn")
        written = []
        with pytest.raises(SimulatedCrash):
            plan.intercept("only", lambda: written.append("full"))
        assert written == []

    def test_power_loss_writes_then_loses_what_was_unsynced(self):
        written = []
        plan = CrashPlan(lambda: written.append("lost"))
        plan.arm(0, "power-loss")
        with pytest.raises(SimulatedCrash, match=r"power lost at write 0 \(a\)"):
            plan.intercept("a", lambda: written.append("a"))
        assert written == ["a", "lost"]
        bare = CrashPlan()  # an owner with nothing unsynced keeps the write
        bare.arm(0, "power-loss")
        with pytest.raises(SimulatedCrash):
            bare.intercept("only", lambda: written.append("kept"))
        assert written[-1] == "kept"

    def test_disarm_cancels_a_planned_crash(self):
        plan = CrashPlan()
        write, written = self._writer(plan)
        plan.arm(1, "after")
        write("a")
        plan.disarm()
        write("b")
        write("c")
        assert written == ["a", "b", "c"]
        assert not plan.fired

    def test_fired_only_after_the_armed_offset_passes(self):
        plan = CrashPlan()
        plan.arm(1, "after")
        assert not plan.fired
        plan.intercept("a", lambda: None)
        assert not plan.fired  # offset 0 written, crash is at 1
        with pytest.raises(SimulatedCrash):
            plan.intercept("b", lambda: None)
        assert plan.fired

    def test_arm_validates_mode_and_offset(self):
        plan = CrashPlan()
        with pytest.raises(ValueError):
            plan.arm(0, "sideways")
        with pytest.raises(ValueError):
            plan.arm(-1)
        assert set(CRASH_MODES) == {"before", "after", "torn", "power-loss"}


class TestFaultPlane:
    def test_kill_orders_are_consumed_fifo_then_heal(self):
        plane = FaultPlane()
        plane.kill_device("node1", "dev", jobs=2)
        for _ in range(2):
            verdict, delay, reason = plane.device_action("node1", "dev")
            assert verdict == plane.FAIL
            assert delay == 0.0
            assert "died mid-job" in reason
        # Orders exhausted: the device healed.
        assert plane.device_action("node1", "dev")[0] == plane.OK
        assert plane.faults_fired == {"kill": 2}

    def test_hang_fails_after_burning_time_slow_succeeds(self):
        plane = FaultPlane()
        plane.hang_device("node1", "dev", hang_s=4.0)
        plane.slow_device("node1", "dev", delay_s=1.5)
        verdict, delay, _ = plane.device_action("node1", "dev")
        assert (verdict, delay) == (plane.FAIL, 4.0)
        verdict, delay, _ = plane.device_action("node1", "dev")
        assert (verdict, delay) == (plane.OK, 1.5)

    def test_power_off_wins_over_device_orders(self):
        """The PDU outlet is upstream of the USB hub: while the vantage
        point is dark, per-device orders are not even consulted."""
        plane = FaultPlane()
        plane.slow_device("node1", "dev", delay_s=1.0)
        plane.power_off("node1")
        verdict, _, reason = plane.device_action("node1", "dev")
        assert verdict == plane.FAIL
        assert "powered off" in reason
        assert plane.pending_orders() == 1  # the slow order is untouched
        plane.power_on("node1")
        assert plane.device_action("node1", "dev")[0] == plane.OK

    def test_other_devices_are_unaffected(self):
        plane = FaultPlane()
        plane.kill_device("node1", "dev-a")
        assert plane.device_action("node1", "dev-b")[0] == plane.OK
        assert plane.device_action("node2", "dev-a")[0] == plane.OK

    def test_clear_heals_everything(self):
        plane = FaultPlane()
        plane.kill_device("node1", "dev", jobs=3)
        plane.power_off("node2")
        plane.clear()
        assert plane.pending_orders() == 0
        assert not plane.powered_off("node2")
        assert plane.device_action("node1", "dev")[0] == plane.OK

    def test_order_validation(self):
        plane = FaultPlane()
        with pytest.raises(ValueError):
            plane.kill_device("node1", "dev", jobs=0)


class TestExecutionLedger:
    def test_same_epoch_repeat_is_a_double_execution(self):
        ledger = ExecutionLedger()
        ledger.record(1)
        ledger.record(1)
        ledger.record(2)
        assert ledger.double_executions() == {1: 2}
        assert ledger.crash_reruns() == 0
        assert ledger.executed_jobs() == [1, 2]

    def test_cross_epoch_repeat_is_a_legitimate_crash_rerun(self):
        ledger = ExecutionLedger()
        ledger.record(1)
        ledger.record(2)
        assert ledger.begin_epoch() == 1
        ledger.record(1)  # in flight at the crash; re-ran after recovery
        assert ledger.double_executions() == {}
        assert ledger.crash_reruns() == 1
        assert ledger.executions(1) == 2

    def test_double_within_a_later_epoch_still_flags(self):
        ledger = ExecutionLedger()
        ledger.record(1)
        ledger.begin_epoch()
        ledger.record(1)
        ledger.record(1)
        assert ledger.double_executions() == {1: 3}
