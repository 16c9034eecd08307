"""The job payload catalogue: durable names for the callables jobs run.

A callable cannot be journaled, so the journal, the wire and an agent's
claim name a payload as registered here.  Process-global and standard
library only: the agent's ``fake`` connector looks ``noop`` up without
loading the server's persistence.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

__all__ = [
    "catalogue_epoch", "get_payload", "noop_payload", "payload_name",
    "register_payload", "unregister_payload",
]

_PAYLOADS: Dict[str, Callable] = {}
_PAYLOAD_NAMES: Dict[Callable, str] = {}
#: Bumped whenever the catalogue changes.  A job's record names its payload
#: (``payload_name(spec.run)`` at encode time), so record text encoded under
#: an older catalogue may no longer be what a fresh encode would produce.
_epoch = 0


def register_payload(name: str, payload: Optional[Callable] = None):
    """Register a job payload under a durable name.

    Usable as a decorator (``@register_payload("measure-idle")``) or called
    directly (``register_payload("measure-idle", fn)``).  Jobs whose
    ``spec.run`` is a registered payload journal the name instead of the
    callable and are fully executable after recovery.  Re-registering a name
    replaces the previous payload (hosts re-register their catalogue on
    every boot).
    """

    def _register(fn: Callable) -> Callable:
        global _epoch
        _epoch += 1
        previous = _PAYLOADS.get(name)
        if previous is not None:
            _PAYLOAD_NAMES.pop(previous, None)
        _PAYLOADS[name] = fn
        _PAYLOAD_NAMES[fn] = name
        return fn

    if payload is not None:
        return _register(payload)
    return _register


def payload_name(payload: Callable) -> Optional[str]:
    """The registered name for ``payload``, or ``None`` if unregistered."""
    try:
        return _PAYLOAD_NAMES.get(payload)
    except TypeError:  # unhashable callable
        return None


def unregister_payload(name: str) -> None:
    """Drop a payload from the catalogue (idempotent).

    For short-lived payloads registered programmatically (the client SDK's
    callable convenience): the registry is process-global, so a payload
    closure left registered pins everything it captures for the process
    lifetime.
    """
    global _epoch
    payload = _PAYLOADS.pop(name, None)
    if payload is not None:
        _PAYLOAD_NAMES.pop(payload, None)
        _epoch += 1


def get_payload(name: str) -> Optional[Callable]:
    """Look up a registered payload by name; ``None`` when unregistered
    (recovery's lenient sibling is ``persistence.codec.resolve_payload``)."""
    return _PAYLOADS.get(name)


def catalogue_epoch() -> int:
    """A number that changes whenever the catalogue does."""
    return _epoch


@register_payload("noop")
def noop_payload(ctx) -> None:
    """Built-in do-nothing payload, handy for queue/benchmark workloads."""
    return None
