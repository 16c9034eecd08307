"""Pluggable device connectors: how an agent actually drives a device.

A :class:`DeviceConnector` is the daemon-side counterpart of Testflinger's
device connectors: one class per way of attaching to hardware, each running
the same three-phase lifecycle — **provision** (put the device in a known
state), **test** (execute the claimed job's payload against it), **cleanup**
(release it) — with per-phase output capture so every byte a phase prints
lands in the phase's journaled record instead of the daemon's stdout.

Connectors are looked up by type name in a process-global registry
(:func:`register_connector` / :func:`create_connector`), so deployments add
hardware support without touching the daemon.  Three types ship built-in:

* ``noprovision`` — skips provisioning entirely (pre-imaged devices);
* ``fake`` — a fully simulated device for tests and benchmarks, with a
  configurable failure injection point (``fail_phase``);
* ``multi`` — fans a multi-device job out to one child connector per extra
  device slot; children inherit the parent job's credentials.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "CONNECTOR_PHASES",
    "ConnectorError",
    "PhaseResult",
    "ConnectorContext",
    "DeviceConnector",
    "NoProvisionConnector",
    "FakeConnector",
    "MultiConnector",
    "register_connector",
    "create_connector",
    "connector_types",
]

#: The fixed phase order every connector runs.
CONNECTOR_PHASES = ("provision", "test", "cleanup")

#: Phase outcome markers.
PHASE_OK = "ok"
PHASE_FAILED = "failed"
PHASE_SKIPPED = "skipped"


class ConnectorError(RuntimeError):
    """Raised for unknown connector types or invalid phase requests."""


@dataclass
class PhaseResult:
    """One executed phase: its outcome and everything it printed."""

    phase: str
    status: str
    output: str = ""

    def to_record(self) -> Dict[str, object]:
        return {"phase": self.phase, "status": self.status, "output": self.output}

    @classmethod
    def from_record(cls, data: Dict[str, object]) -> "PhaseResult":
        return cls(
            phase=str(data["phase"]),
            status=str(data["status"]),
            output=str(data.get("output", "")),
        )


@dataclass
class ConnectorContext:
    """What a connector phase sees: the claimed job and its device.

    ``credentials`` is the identity the work runs under — the agent's own
    account plus the job owner's name.  :class:`MultiConnector` copies the
    *parent's* credentials into every child context, which is the
    credential-inheritance rule multi-device jobs rely on.

    ``result`` is set by the test phase and becomes the job's reported
    result; ``children`` accumulates per-child-device outcomes for
    multi-device jobs.
    """

    job_id: int
    job_name: str
    owner: str
    payload: Optional[str]
    vantage_point: str
    device_serial: str
    credentials: Dict[str, str] = field(default_factory=dict)
    extra_devices: List[Tuple[str, str]] = field(default_factory=list)
    config: Dict[str, object] = field(default_factory=dict)
    result: object = None
    children: List[Dict[str, object]] = field(default_factory=list)

    def child_context(self, vantage_point: str, device_serial: str) -> "ConnectorContext":
        """A child device's context, inheriting the parent's credentials."""
        return ConnectorContext(
            job_id=self.job_id,
            job_name=self.job_name,
            owner=self.owner,
            payload=self.payload,
            vantage_point=vantage_point,
            device_serial=device_serial,
            credentials=dict(self.credentials),
            config=dict(self.config),
        )


class _AgentJobContext:
    """The minimal job-context a payload sees when an *agent* runs it.

    The daemon has no live platform API — it is on the device side of the
    wire — so payloads written against the full
    :class:`~repro.accessserver.jobs.JobContext` get the same ``log`` /
    ``store_artifact`` / ``device_serial`` surface with ``api=None``;
    payloads needing the API fail in the test phase, which is the correct
    signal that the job should run push-mode instead.
    """

    def __init__(self, ctx: ConnectorContext) -> None:
        self._ctx = ctx
        self.api = None
        self.job_id = ctx.job_id
        self.vantage_point = ctx.vantage_point
        self.device_serial = ctx.device_serial
        self.now = 0.0
        self.artifacts: Dict[str, object] = {}

    def log(self, message: str) -> None:
        print(message)

    def store_artifact(self, name: str, value: object) -> None:
        self.artifacts[name] = value


class DeviceConnector:
    """Base class: one way of attaching a device, run in three phases.

    Subclasses implement any of :meth:`provision` / :meth:`test` /
    :meth:`cleanup`; a phase that is not overridden is *skipped* (recorded
    with status ``"skipped"``, never silently dropped).  The daemon runs
    phases one at a time through :meth:`run_phase` so it can journal each
    outcome and renew its lease between phases.
    """

    #: Registry key; set by the :func:`register_connector` decorator.
    type_name = ""

    def __init__(self, config: Optional[Dict[str, object]] = None) -> None:
        self.config = dict(config or {})

    # -- phase implementations (override any subset) -------------------------
    def provision(self, ctx: ConnectorContext) -> Optional[str]:
        raise NotImplementedError

    def test(self, ctx: ConnectorContext) -> Optional[str]:
        raise NotImplementedError

    def cleanup(self, ctx: ConnectorContext) -> Optional[str]:
        raise NotImplementedError

    # -- execution ------------------------------------------------------------
    def run_phase(self, phase: str, ctx: ConnectorContext) -> PhaseResult:
        """Run one phase with output capture; never raises.

        Everything the phase prints, plus its return value (if any), is the
        phase's ``output``; an exception marks the phase ``failed`` with the
        error appended to whatever was already captured.
        """
        if phase not in CONNECTOR_PHASES:
            raise ConnectorError(
                f"unknown phase {phase!r}; phases are {CONNECTOR_PHASES}"
            )
        method = getattr(type(self), phase)
        if method is getattr(DeviceConnector, phase):
            return PhaseResult(phase=phase, status=PHASE_SKIPPED)
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                returned = method(self, ctx)
        except Exception as exc:  # noqa: BLE001 - phase boundary
            output = buffer.getvalue() + f"{type(exc).__name__}: {exc}"
            return PhaseResult(phase=phase, status=PHASE_FAILED, output=output)
        output = buffer.getvalue()
        if returned is not None:
            output += str(returned)
        return PhaseResult(phase=phase, status=PHASE_OK, output=output)

    def run(self, ctx: ConnectorContext) -> List[PhaseResult]:
        """Run all phases in order (convenience for tests; the daemon drives
        phases individually so it can journal and heartbeat between them)."""
        return [self.run_phase(phase, ctx) for phase in CONNECTOR_PHASES]


# -- registry ----------------------------------------------------------------

_CONNECTORS: Dict[str, Callable[..., DeviceConnector]] = {}


def register_connector(name: str):
    """Class decorator registering a connector type under ``name``.

    Re-registering a name replaces the previous type (daemons rebuild their
    catalogue at import time), mirroring the payload registry's semantics.
    """

    def _register(cls):
        cls.type_name = name
        _CONNECTORS[name] = cls
        return cls

    return _register


def create_connector(
    name: str, config: Optional[Dict[str, object]] = None
) -> DeviceConnector:
    """Instantiate a registered connector type."""
    cls = _CONNECTORS.get(name)
    if cls is None:
        raise ConnectorError(
            f"unknown connector type {name!r}; registered types: "
            f"{sorted(_CONNECTORS)}"
        )
    return cls(config)


def connector_types() -> List[str]:
    return sorted(_CONNECTORS)


# -- built-in connectors ------------------------------------------------------


@register_connector("fake")
class FakeConnector(DeviceConnector):
    """A fully simulated device: deterministic, instant, test-friendly.

    Config keys:

    * ``fail_phase`` — name of a phase to fail deliberately (fault
      injection for tests);
    * ``result`` — value the test phase reports when the job's payload is
      not locally resolvable.
    """

    def _maybe_fail(self, phase: str) -> None:
        if self.config.get("fail_phase") == phase:
            from repro.chaos.faults import InjectedFault

            raise InjectedFault(f"injected {phase} failure")

    def provision(self, ctx: ConnectorContext) -> str:
        self._maybe_fail("provision")
        return f"provisioned {ctx.device_serial}"

    def test(self, ctx: ConnectorContext) -> str:
        self._maybe_fail("test")
        # Run the job's payload when its name resolves in this process —
        # the in-process deployments share the payload catalogue — and
        # fall back to the configured canned result otherwise.
        from repro.accessserver.payloads import get_payload

        payload = get_payload(ctx.payload) if ctx.payload else None
        if payload is not None:
            ctx.result = payload(_AgentJobContext(ctx))
        else:
            ctx.result = self.config.get("result")
        return f"tested {ctx.device_serial} as {ctx.credentials.get('username', '?')}"

    def cleanup(self, ctx: ConnectorContext) -> str:
        self._maybe_fail("cleanup")
        return f"cleaned {ctx.device_serial}"


@register_connector("noprovision")
class NoProvisionConnector(FakeConnector):
    """Runs tests on a pre-imaged device: the provision phase is skipped."""

    # Restore the base's un-overridden provision so run_phase records the
    # phase as "skipped" instead of running the fake image step.
    provision = DeviceConnector.provision


@register_connector("multi")
class MultiConnector(DeviceConnector):
    """Fans a multi-device job out across every claimed device slot.

    The parent's test phase runs one child connector (config ``child``,
    default ``"fake"``) per device — primary first, then every extra slot
    the lease holds — giving each child a context that **inherits the
    parent's credentials**.  Per-child outcomes accumulate in
    ``ctx.children`` and ride home in the agent's report as
    ``dispatch.child_result`` events.
    """

    def provision(self, ctx: ConnectorContext) -> str:
        return f"provisioned {1 + len(ctx.extra_devices)} devices"

    def test(self, ctx: ConnectorContext) -> str:
        child_type = str(self.config.get("child", "fake"))
        devices = [(ctx.vantage_point, ctx.device_serial)] + list(ctx.extra_devices)
        statuses: Dict[str, str] = {}
        for vantage_point, serial in devices:
            child_ctx = ctx.child_context(vantage_point, serial)
            connector = create_connector(child_type, self.config.get("child_config"))
            results = connector.run(child_ctx)
            failed = any(r.status == PHASE_FAILED for r in results)
            status = "failed" if failed else "completed"
            statuses[serial] = status
            ctx.children.append(
                {
                    "vantage_point": vantage_point,
                    "device_serial": serial,
                    "status": status,
                    "output": "\n".join(
                        f"{r.phase}: {r.output}" for r in results if r.output
                    ),
                    "credentials": dict(child_ctx.credentials),
                    "result": child_ctx.result,
                }
            )
        if any(status == "failed" for status in statuses.values()):
            raise RuntimeError(f"child device(s) failed: {statuses}")
        ctx.result = {"children": statuses}
        return f"ran {len(devices)} children"

    def cleanup(self, ctx: ConnectorContext) -> str:
        return f"released {1 + len(ctx.extra_devices)} devices"
