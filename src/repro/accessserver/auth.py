"""Users, roles, the authorization matrix, and bearer token sessions.

Section 3.1: experimenters must authenticate and be authorized before they
can reach the access server's web console (HTTPS only); only authorized
experimenters may create, edit or run jobs; and every pipeline change needs
an administrator's approval, enforced through "a role-based authorization
matrix".  This module implements that matrix.

Platform API v2 adds :class:`SessionManager`: instead of resending the
username+token pair with every request, a client logs in once
(``auth.login``) and receives a short-lived bearer session token; the
manager resolves that token back to a :class:`User` on every subsequent
request and rejects expired or revoked sessions with
:class:`SessionExpiredError`.  Only the SHA-256 hash of a session token is
retained server-side, mirroring how account tokens are stored.
"""

from __future__ import annotations

import enum
import hashlib
import secrets
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional


class AuthenticationError(RuntimeError):
    """Raised when credentials are missing or wrong."""


class AuthorizationError(RuntimeError):
    """Raised when an authenticated user lacks a required permission."""


class SessionExpiredError(AuthenticationError):
    """Raised when a bearer session token is unknown, expired or revoked."""


class Role(str, enum.Enum):
    ADMIN = "admin"
    EXPERIMENTER = "experimenter"
    TESTER = "tester"


class Permission(str, enum.Enum):
    CREATE_JOB = "create_job"
    EDIT_JOB = "edit_job"
    RUN_JOB = "run_job"
    APPROVE_PIPELINE = "approve_pipeline"
    MANAGE_VANTAGE_POINTS = "manage_vantage_points"
    VIEW_RESULTS = "view_results"
    REMOTE_CONTROL = "remote_control"
    MANAGE_USERS = "manage_users"
    MANAGE_CREDITS = "manage_credits"


#: The role-based authorization matrix.  Testers only ever get remote control
#: of a device mirror shared with them; experimenters run experiments; admins
#: additionally approve pipeline changes and manage vantage points.
ROLE_PERMISSIONS: Dict[Role, FrozenSet[Permission]] = {
    Role.ADMIN: frozenset(Permission),
    Role.EXPERIMENTER: frozenset(
        {
            Permission.CREATE_JOB,
            Permission.EDIT_JOB,
            Permission.RUN_JOB,
            Permission.VIEW_RESULTS,
            Permission.REMOTE_CONTROL,
        }
    ),
    Role.TESTER: frozenset({Permission.REMOTE_CONTROL}),
}


def _hash_token(token: str) -> str:
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


@dataclass
class User:
    """One account on the access server."""

    username: str
    role: Role
    token_hash: str
    email: str = ""
    enabled: bool = True
    extra_permissions: FrozenSet[Permission] = field(default_factory=frozenset)

    def permissions(self) -> FrozenSet[Permission]:
        return ROLE_PERMISSIONS[self.role] | self.extra_permissions

    def has_permission(self, permission: Permission) -> bool:
        return permission in self.permissions()


class UserRegistry:
    """Account store plus authentication/authorization entry points."""

    def __init__(self, https_only: bool = True) -> None:
        self._users: Dict[str, User] = {}
        self._https_only = bool(https_only)

    @property
    def https_only(self) -> bool:
        """The web console is only reachable over HTTPS (Section 3.1)."""
        return self._https_only

    def add_user(
        self,
        username: str,
        role: Role,
        token: str,
        email: str = "",
        extra_permissions: Optional[FrozenSet[Permission]] = None,
    ) -> User:
        if not username:
            raise ValueError("username must be non-empty")
        if username in self._users:
            raise ValueError(f"user {username!r} already exists")
        if not token:
            raise ValueError("token must be non-empty")
        user = User(
            username=username,
            role=Role(role),
            token_hash=_hash_token(token),
            email=email,
            extra_permissions=extra_permissions or frozenset(),
        )
        self._users[username] = user
        return user

    def restore_user(
        self,
        username: str,
        role: Role,
        token_hash: str,
        email: str = "",
        enabled: bool = True,
    ) -> User:
        """Recreate an account exactly as journaled (hash, not plaintext token).

        Used by crash recovery: the journal is authoritative, so an account
        the host happened to bootstrap before recovery ran is overwritten
        with the journaled state.
        """
        user = User(
            username=username,
            role=Role(role),
            token_hash=token_hash,
            email=email,
            enabled=enabled,
        )
        self._users[username] = user
        return user

    def disable_user(self, username: str) -> None:
        self.get(username).enabled = False

    def __contains__(self, username: str) -> bool:
        return username in self._users

    def get(self, username: str) -> User:
        try:
            return self._users[username]
        except KeyError:
            raise AuthenticationError(f"unknown user {username!r}") from None

    def usernames(self) -> List[str]:
        return sorted(self._users)

    def users_with_role(self, role: Role) -> List[User]:
        return [user for user in self._users.values() if user.role is role]

    # -- authn / authz -------------------------------------------------------------
    def authenticate(self, username: str, token: str, over_https: bool = True) -> User:
        """Validate credentials; HTTP access is rejected when HTTPS-only is set."""
        if self._https_only and not over_https:
            raise AuthenticationError("the web console is only available over HTTPS")
        user = self.get(username)
        if not user.enabled:
            raise AuthenticationError(f"user {username!r} is disabled")
        if user.token_hash != _hash_token(token):
            raise AuthenticationError("invalid credentials")
        return user

    def authorize(self, user: User, permission: Permission) -> None:
        """Raise :class:`AuthorizationError` unless ``user`` holds ``permission``."""
        if not user.enabled:
            raise AuthorizationError(f"user {user.username!r} is disabled")
        if not user.has_permission(permission):
            raise AuthorizationError(
                f"user {user.username!r} (role {user.role.value}) lacks permission "
                f"{Permission(permission).value!r}"
            )


# ---------------------------------------------------------------------------
# Bearer token sessions (Platform API v2)
# ---------------------------------------------------------------------------


@dataclass
class TokenSession:
    """One issued bearer session; only the token's hash is retained."""

    username: str
    token_hash: str
    issued_at: float
    expires_at: float
    revoked: bool = False

    def active(self, now: float) -> bool:
        return not self.revoked and now < self.expires_at


class SessionManager:
    """Issues and resolves short-lived bearer session tokens.

    ``auth.login`` exchanges the long-lived account credentials for a
    session token with a bounded TTL; every later request presents only the
    session token, so the account token never travels more than once per
    session.  Sessions are in-memory by design — a restart invalidates them
    and clients simply log in again (they still hold their account
    credentials).

    The table holds no accounts: ``login`` and ``resolve`` check the user
    against the caller's :class:`UserRegistry` and clock, so a federation
    shares one table across its shards.

    Parameters
    ----------
    default_ttl_s:
        Session lifetime when ``login`` is not given an explicit one.
    max_ttl_s:
        Upper bound a client may request; longer requests are clamped.
    token_factory:
        Source of fresh token strings — injectable for deterministic tests;
        defaults to :func:`secrets.token_hex`.
    """

    def __init__(
        self,
        default_ttl_s: float = 3600.0,
        max_ttl_s: float = 24 * 3600.0,
        token_factory: Optional[Callable[[], str]] = None,
    ) -> None:
        if default_ttl_s <= 0 or max_ttl_s <= 0:
            raise ValueError("session TTLs must be positive")
        self._default_ttl_s = float(default_ttl_s)
        self._max_ttl_s = float(max(max_ttl_s, default_ttl_s))
        self._token_factory = token_factory or (lambda: secrets.token_hex(16))
        self._sessions: Dict[str, TokenSession] = {}

    @property
    def default_ttl_s(self) -> float:
        return self._default_ttl_s

    def login(
        self,
        users: UserRegistry,
        username: str,
        token: str,
        now: float,
        ttl_s: Optional[float] = None,
        over_https: bool = True,
    ) -> "tuple[str, TokenSession]":
        """Authenticate account credentials and mint a session.

        Returns ``(plaintext_token, session)``; the plaintext token is shown
        exactly once — the manager keeps only its hash.
        """
        # Opportunistic cleanup: every login sweeps sessions that can never
        # resolve again, so the store is bounded by *active* sessions even
        # on servers whose clients re-login at each TTL expiry forever.
        self.purge_expired(now)
        user = users.authenticate(username, token, over_https=over_https)
        if ttl_s is None:
            ttl_s = self._default_ttl_s
        if ttl_s <= 0:
            raise ValueError("session ttl_s must be positive")
        ttl_s = min(float(ttl_s), self._max_ttl_s)
        session_token = self._token_factory()
        session = TokenSession(
            username=user.username,
            token_hash=_hash_token(session_token),
            issued_at=now,
            expires_at=now + ttl_s,
        )
        self._sessions[session.token_hash] = session
        return session_token, session

    def resolve(
        self,
        users: UserRegistry,
        session_token: str,
        now: float,
        over_https: bool = True,
    ) -> User:
        """The user behind an active session token; typed failures otherwise."""
        if users.https_only and not over_https:
            raise AuthenticationError("the web console is only available over HTTPS")
        session = self._sessions.get(_hash_token(session_token))
        if session is None:
            raise SessionExpiredError("unknown session token; log in again")
        if not session.active(now):
            raise SessionExpiredError("session expired or revoked; log in again")
        user = users.get(session.username)
        if not user.enabled:
            raise AuthenticationError(f"user {session.username!r} is disabled")
        return user

    def revoke(self, session_token: str) -> bool:
        """Revoke one session (``auth.logout``); true when it existed."""
        session = self._sessions.get(_hash_token(session_token))
        if session is None or session.revoked:
            return False
        session.revoked = True
        return True

    def revoke_user(self, username: str) -> int:
        """Revoke every session of one user (offboarding); returns the count."""
        revoked = 0
        for session in self._sessions.values():
            if session.username == username and not session.revoked:
                session.revoked = True
                revoked += 1
        return revoked

    def purge_expired(self, now: float) -> int:
        """Drop sessions that can never resolve again; returns the count."""
        stale = [
            key for key, session in self._sessions.items() if not session.active(now)
        ]
        for key in stale:
            del self._sessions[key]
        return len(stale)

    def active_count(self, now: float) -> int:
        return sum(1 for session in self._sessions.values() if session.active(now))
