"""Typed error taxonomy for the Platform API (v1 and v2).

Every failure the platform can hand a remote caller is an :class:`ApiError`
subclass with a *stable, machine-readable* ``code``.  The codes — not the
Python class names, not the human-readable messages — are the compatibility
contract: clients switch on ``error.code``, the golden tests in
``tests/test_api_schemas.py`` pin the full table, and a code may never be
renamed or reused within API v1.

The taxonomy replaces the mix of ``JobError`` / ``SchedulingError`` /
``CreditError`` / ``ValueError`` / raw ``RuntimeError`` strings that used to
leak out of :mod:`repro.accessserver.server`: :func:`map_exception`
translates every domain exception at the router boundary, so transports
only ever carry wire-safe ``{"code", "message", "details"}`` dicts and
:func:`error_from_wire` rebuilds the typed exception client-side.
"""

from __future__ import annotations

from typing import Dict, Optional, Type


class ApiError(Exception):
    """Base class for every Platform API v1 error.

    Attributes
    ----------
    code:
        Stable machine-readable identifier (``"category.reason"``).  Part of
        the v1 wire contract; never renamed, never reused.
    retryable:
        Whether an identical retry may succeed without caller changes
        (transport hiccups yes, validation failures no).
    details:
        Optional primitive-valued dict with structured context (job id,
        missing field, required permission, ...).
    """

    code: str = "error"
    retryable: bool = False

    def __init__(self, message: str, details: Optional[Dict[str, object]] = None) -> None:
        super().__init__(message)
        self.message = message
        self.details: Dict[str, object] = dict(details or {})

    def to_wire(self) -> Dict[str, object]:
        """The JSON-safe wire form carried in error response envelopes."""
        wire: Dict[str, object] = {"code": self.code, "message": self.message}
        if self.details:
            wire["details"] = dict(self.details)
        return wire

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(code={self.code!r}, message={self.message!r})"


class ValidationApiError(ApiError):
    """The request was malformed: bad envelope, unknown field, wrong type."""

    code = "request.invalid"


class VersionApiError(ApiError):
    """The request's ``version`` is not supported by this server."""

    code = "request.version_unsupported"


class UnknownOperationApiError(ApiError):
    """The requested operation name is not routable."""

    code = "request.unknown_operation"


class AuthenticationApiError(ApiError):
    """Missing, unknown or wrong credentials (includes disabled accounts)."""

    code = "auth.invalid_credentials"


class PermissionApiError(ApiError):
    """Authenticated, but the user lacks the operation's permission."""

    code = "auth.permission_denied"


class SessionApiError(ApiError):
    """The bearer session token is unknown, expired or revoked (API v2).

    Distinct from :class:`AuthenticationApiError` so clients can react by
    transparently re-running ``auth.login`` with their account credentials
    instead of surfacing a credentials failure to the operator.
    """

    code = "auth.session_expired"


class NotFoundApiError(ApiError):
    """The referenced resource (job, vantage point, account) does not exist."""

    code = "resource.not_found"


class ConflictApiError(ApiError):
    """The operation is invalid in the resource's current state."""

    code = "resource.conflict"


class CreditApiError(ApiError):
    """The owner's credit balance cannot cover the requested device time."""

    code = "credits.insufficient"


class TransportApiError(ApiError):
    """Client-side transport failure: unreachable gateway, broken frame."""

    code = "transport.failed"
    retryable = True


class InternalApiError(ApiError):
    """Unexpected server-side failure; the request may or may not have applied."""

    code = "server.internal"
    retryable = True


#: The frozen v1 code table.  Adding a code is a compatible change; renaming
#: or removing one is not (tests pin this mapping).
ERROR_CODES: Dict[str, Type[ApiError]] = {
    cls.code: cls
    for cls in (
        ValidationApiError,
        VersionApiError,
        UnknownOperationApiError,
        AuthenticationApiError,
        PermissionApiError,
        NotFoundApiError,
        ConflictApiError,
        CreditApiError,
        TransportApiError,
        InternalApiError,
    )
}

#: Codes introduced by Platform API v2.  Kept separate so the v1 table stays
#: byte-for-byte frozen; v2 has its own golden test pinning the union.
V2_ERROR_CODES: Dict[str, Type[ApiError]] = {
    cls.code: cls for cls in (SessionApiError,)
}

#: Every code any supported API version can emit (v1 ∪ v2).
ALL_ERROR_CODES: Dict[str, Type[ApiError]] = {**ERROR_CODES, **V2_ERROR_CODES}


def error_from_wire(data: Dict[str, object]) -> ApiError:
    """Rebuild the typed error a server serialised with :meth:`ApiError.to_wire`.

    Unknown codes (a newer server within v1) degrade to a plain
    :class:`ApiError` that preserves the original code string, so clients
    can still switch on ``error.code``.
    """
    code = str(data.get("code", "error"))
    message = str(data.get("message", ""))
    details = data.get("details")
    if not isinstance(details, dict):
        details = None
    cls = ALL_ERROR_CODES.get(code)
    if cls is None:
        error = ApiError(message, details)
        error.code = code
        return error
    return cls(message, details)


def map_exception(exc: BaseException) -> ApiError:
    """Translate a domain exception into its typed API error.

    This is the single choke point where the access server's internal
    exception zoo meets the wire contract.  ``ApiError`` instances pass
    through untouched.
    """
    from repro.accessserver.accounts import AccessServerError
    from repro.accessserver.auth import (
        AuthenticationError,
        AuthorizationError,
        SessionExpiredError,
    )
    from repro.accessserver.credits import CreditError
    from repro.accessserver.dispatch import SchedulingError
    from repro.accessserver.jobs import JobError
    from repro.accessserver.policies import PolicyError

    if isinstance(exc, ApiError):
        return exc
    message = str(exc)
    if isinstance(exc, SessionExpiredError):
        return SessionApiError(message)
    if isinstance(exc, AuthenticationError):
        return AuthenticationApiError(message)
    if isinstance(exc, AuthorizationError):
        return PermissionApiError(message)
    if isinstance(exc, CreditError):
        if "unknown credit account" in message:
            return NotFoundApiError(message)
        return CreditApiError(message)
    if isinstance(exc, SchedulingError):
        if "unknown job id" in message:
            return NotFoundApiError(message)
        return ConflictApiError(message)
    if isinstance(exc, AccessServerError):
        if "unknown vantage point" in message:
            return NotFoundApiError(message)
        return ConflictApiError(message)
    if isinstance(exc, JobError):
        return ConflictApiError(message)
    from repro.accessserver.agents import AgentError

    if isinstance(exc, AgentError):
        if "unknown" in message:
            return NotFoundApiError(message)
        return ConflictApiError(message)
    if isinstance(exc, (PolicyError, ValueError, TypeError, KeyError)):
        return ValidationApiError(message)
    return InternalApiError(f"{type(exc).__name__}: {message}")
