"""repro.chaos — the chaos virtual lab.

Scripted fault injection, a whole-platform invariant checker, and a soak
harness that drives hundreds of thousands of jobs through the gateway,
federation and agent planes while faults fire on the simulated clock.

* :mod:`repro.chaos.faults` — the shared fault vocabulary every plane
  speaks (``SimulatedCrash``, ``CrashPlan``, ``FaultPlane``, ...);
* :mod:`repro.chaos.scenario` — the declarative scenario DSL, builder
  API and canned scenarios;
* :mod:`repro.chaos.injectors` — transport and federation injection
  points;
* :mod:`repro.chaos.invariants` — the invariant catalogue;
* :mod:`repro.chaos.soak` — the soak harness behind ``repro chaos``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.chaos.faults import (
        CRASH_MODES,
        CrashPlan,
        ExecutionLedger,
        FaultPlane,
        InjectedFault,
        SimulatedCrash,
    )
    from repro.chaos.injectors import ChaosTransport, ShardPartition
    from repro.chaos.invariants import (
        CheckResult,
        InvariantReport,
        InvariantViolation,
        check_analytics_live_equals_replay,
        check_credit_conservation,
        check_device_hold_conservation,
        check_history_bounded,
        check_outbox_bounded,
        check_no_double_execution,
        check_no_lost_jobs,
        check_push_contract,
        check_recovery_byte_identical,
        check_snapshot_equals_fresh_encode,
    )
    from repro.chaos.scenario import (
        FAULT_KINDS,
        FaultEvent,
        Scenario,
        ScenarioBuilder,
        ScenarioError,
        canned_scenario,
        canned_scenario_names,
    )
    from repro.chaos.soak import SoakConfig, SoakHarness, SoakResult, run_soak

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "faults": (
            "CRASH_MODES",
            "CrashPlan",
            "ExecutionLedger",
            "FaultPlane",
            "InjectedFault",
            "SimulatedCrash",
        ),
        "injectors": ("ChaosTransport", "ShardPartition"),
        "invariants": (
            "CheckResult",
            "InvariantReport",
            "InvariantViolation",
            "check_analytics_live_equals_replay",
            "check_credit_conservation",
            "check_device_hold_conservation",
            "check_history_bounded",
            "check_outbox_bounded",
            "check_no_double_execution",
            "check_no_lost_jobs",
            "check_push_contract",
            "check_recovery_byte_identical",
            "check_snapshot_equals_fresh_encode",
        ),
        "scenario": (
            "FAULT_KINDS",
            "FaultEvent",
            "Scenario",
            "ScenarioBuilder",
            "ScenarioError",
            "canned_scenario",
            "canned_scenario_names",
        ),
        "soak": ("SoakConfig", "SoakHarness", "SoakResult", "run_soak"),
    },
)
