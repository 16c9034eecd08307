"""Credit system for platform access.

The paper's conclusion sketches how BatteryLab should grow: "Our vision is
an open source and open access platform that users can join by sharing
resources.  However, we anticipate potential access via a credit system for
experimenters lacking the resources for the initial setup."

This module implements that credit system:

* institutions *earn* credits for the device-hours their vantage points make
  available to others;
* experimenters without hardware *spend* credits for the device-hours their
  jobs and interactive sessions consume;
* members who contribute hardware get a configurable ratio of free usage
  (contributing one device-hour earns more than one device-hour of usage, to
  incentivise joining).

The ledger is intentionally simple — integer-free floating device-hours with
an auditable transaction log — because the interesting behaviour is the
policy (who may run a job), which :class:`CreditPolicy` encapsulates and the
access server can consult before dispatching.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


class CreditError(RuntimeError):
    """Raised for unknown accounts or overdrafts."""


class TransactionKind(str, enum.Enum):
    GRANT = "grant"
    CONTRIBUTION = "contribution"
    USAGE = "usage"
    ADJUSTMENT = "adjustment"


@dataclass(frozen=True)
class CreditTransaction:
    """One ledger entry (positive amounts add credits, negative remove them)."""

    timestamp: float
    account: str
    kind: TransactionKind
    amount_device_hours: float
    note: str = ""


@dataclass
class CreditAccount:
    """Balance and history for one user or institution."""

    owner: str
    balance_device_hours: float = 0.0
    contributes_hardware: bool = False
    transactions: List[CreditTransaction] = field(default_factory=list)


class CreditLedger:
    """Tracks every member's credit balance.

    Parameters
    ----------
    contribution_multiplier:
        Credits earned per device-hour of hardware made available; values
        above 1.0 reward members that contribute vantage points.
    initial_grant_device_hours:
        Starter credits for new experimenters (lets them try the platform
        before committing hardware or funds).
    """

    def __init__(
        self,
        contribution_multiplier: float = 1.5,
        initial_grant_device_hours: float = 5.0,
    ) -> None:
        if contribution_multiplier <= 0:
            raise ValueError("contribution multiplier must be positive")
        if initial_grant_device_hours < 0:
            raise ValueError("initial grant must be non-negative")
        self._accounts: Dict[str, CreditAccount] = {}
        self._contribution_multiplier = float(contribution_multiplier)
        self._initial_grant = float(initial_grant_device_hours)
        #: Called with ``("account_opened", data)`` when an account is
        #: created and ``("transaction", data)`` for every ledger entry,
        #: ``data`` primitive-valued.  ``Accounts`` sets it to record and
        #: publish credit mutations without the ledger knowing of either.
        self.observer: Optional[Callable[[str, Dict[str, object]], None]] = None

    @property
    def contribution_multiplier(self) -> float:
        return self._contribution_multiplier

    @property
    def initial_grant_device_hours(self) -> float:
        return self._initial_grant

    def _notify(self, kind: str, data: Dict[str, object]) -> None:
        if self.observer is not None:
            self.observer(kind, data)

    # -- accounts -----------------------------------------------------------------
    def open_account(
        self, owner: str, contributes_hardware: bool = False, now: float = 0.0
    ) -> CreditAccount:
        if owner in self._accounts:
            raise CreditError(f"account {owner!r} already exists")
        account = CreditAccount(owner=owner, contributes_hardware=contributes_hardware)
        self._accounts[owner] = account
        self._notify(
            "account_opened", {"owner": owner, "contributes_hardware": contributes_hardware}
        )
        if self._initial_grant > 0:
            self._record(
                account,
                TransactionKind.GRANT,
                self._initial_grant,
                now,
                note="initial grant for new members",
            )
        return account

    def __contains__(self, owner: str) -> bool:
        return owner in self._accounts

    def account(self, owner: str) -> CreditAccount:
        try:
            return self._accounts[owner]
        except KeyError:
            raise CreditError(f"unknown credit account {owner!r}") from None

    def accounts(self) -> List[CreditAccount]:
        return [self._accounts[name] for name in sorted(self._accounts)]

    def balance(self, owner: str) -> float:
        return self.account(owner).balance_device_hours

    # -- earning and spending -------------------------------------------------------
    def credit_contribution(self, owner: str, device_hours: float, now: float, note: str = "") -> float:
        """Award credits for hosting ``device_hours`` of available test-device time."""
        if device_hours < 0:
            raise ValueError("device_hours must be non-negative")
        account = self.account(owner)
        earned = device_hours * self._contribution_multiplier
        self._record(account, TransactionKind.CONTRIBUTION, earned, now, note=note)
        return earned

    def charge_usage(self, owner: str, device_hours: float, now: float, note: str = "") -> float:
        """Charge an experimenter for consumed device time; overdrafts are rejected."""
        if device_hours < 0:
            raise ValueError("device_hours must be non-negative")
        account = self.account(owner)
        if account.contributes_hardware:
            # Hardware contributors use the platform for free (they pay in kind).
            self._record(account, TransactionKind.USAGE, 0.0, now, note=f"waived: {note}")
            return 0.0
        if account.balance_device_hours < device_hours:
            raise CreditError(
                f"account {owner!r} has {account.balance_device_hours:.2f} device-hours, "
                f"needs {device_hours:.2f}"
            )
        self._record(account, TransactionKind.USAGE, -device_hours, now, note=note)
        return device_hours

    def adjust(self, owner: str, amount_device_hours: float, now: float, note: str = "") -> None:
        """Manual administrative adjustment (refunds, penalties)."""
        self._record(self.account(owner), TransactionKind.ADJUSTMENT, amount_device_hours, now, note=note)

    def can_afford(self, owner: str, device_hours: float) -> bool:
        account = self.account(owner)
        return account.contributes_hardware or account.balance_device_hours >= device_hours

    def restore_account(
        self,
        owner: str,
        contributes_hardware: bool,
        balance_device_hours: float,
        transactions: List[CreditTransaction],
    ) -> CreditAccount:
        """Recreate an account exactly as journaled — no grant, no observers.

        Used by crash recovery: the replayed transactions already include any
        initial grant, so the account is rebuilt verbatim rather than opened
        through the normal (grant-issuing, observer-notifying) path.  The
        journal is authoritative — an account the host happened to open
        before recovery ran is overwritten with the journaled state.
        """
        account = CreditAccount(
            owner=owner,
            balance_device_hours=balance_device_hours,
            contributes_hardware=contributes_hardware,
            transactions=list(transactions),
        )
        self._accounts[owner] = account
        return account

    def _record(
        self,
        account: CreditAccount,
        kind: TransactionKind,
        amount: float,
        now: float,
        note: str = "",
    ) -> None:
        account.balance_device_hours += amount
        account.transactions.append(
            CreditTransaction(
                timestamp=now,
                account=account.owner,
                kind=kind,
                amount_device_hours=amount,
                note=note,
            )
        )
        self._notify(
            "transaction",
            {
                "timestamp": now,
                "account": account.owner,
                "kind": kind.value,
                "amount_device_hours": amount,
                "note": note,
            },
        )


class CreditPolicy:
    """Decides whether a job or session may run, and settles its cost afterwards.

    The access server consults :meth:`authorize` before dispatching a job for
    an owner and calls :meth:`settle` with the actual device time consumed
    when the job finishes.
    """

    def __init__(self, ledger: CreditLedger, minimum_reservation_hours: float = 0.25) -> None:
        if minimum_reservation_hours < 0:
            raise ValueError("minimum reservation must be non-negative")
        self._ledger = ledger
        self._minimum_reservation_hours = float(minimum_reservation_hours)

    @property
    def ledger(self) -> CreditLedger:
        return self._ledger

    @property
    def minimum_reservation_hours(self) -> float:
        return self._minimum_reservation_hours

    def authorize(self, owner: str, estimated_device_hours: Optional[float] = None) -> None:
        """Raise :class:`CreditError` unless ``owner`` can afford the estimated usage."""
        estimate = max(
            self._minimum_reservation_hours,
            estimated_device_hours if estimated_device_hours is not None else 0.0,
        )
        if not self._ledger.can_afford(owner, estimate):
            raise CreditError(
                f"user {owner!r} lacks credits for an estimated {estimate:.2f} device-hours"
            )

    def settle(self, owner: str, actual_device_hours: float, now: float, note: str = "") -> float:
        """Charge the actual usage once a job or session completes."""
        return self._ledger.charge_usage(owner, actual_device_hours, now, note=note)
