"""Accounts: who runs the platform's devices, who may use them, and who pays.

The access server (Section 3.1) admits institutions' vantage points through
a join procedure and opens experimenter accounts; the paper's conclusion
meters access by credit.  :class:`Accounts` — built with the access server
as ``server.accounts`` — owns that seam: vantage points, user creation, the
credit ledger with its one who-pays rule (:meth:`Accounts.payer`), tester
sharing, and the orphan view read off the queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.accessserver.auth import Permission, Role, User
from repro.accessserver.credits import CreditAccount, CreditLedger, CreditPolicy
from repro.accessserver.jobs import Job, JobSpec
from repro.accessserver.testers import TesterPool
from repro.network.ssh import SshChannel
from repro.vantagepoint.controller import VantagePointController
from repro.vantagepoint.provisioning import JoinRequest, ProvisioningReport, provision_vantage_point

if TYPE_CHECKING:
    from repro.accessserver.server import AccessServer

__all__ = ["AccessServerError", "Accounts", "VantagePointRecord"]


class AccessServerError(RuntimeError):
    """Raised for platform-level errors (unknown vantage point, failed join, ...)."""


@dataclass
class VantagePointRecord:
    """A registered vantage point as seen by the access server."""

    name: str
    controller: VantagePointController
    institution: str
    dns_name: str
    report: ProvisioningReport
    approved: bool = True


class Accounts:
    """Vantage points, user accounts, credits and testers of one access server."""

    def __init__(self, server: "AccessServer") -> None:
        self._server = server
        self._vantage_points: Dict[str, VantagePointRecord] = {}
        self._credit_policy: Optional[CreditPolicy] = None
        #: Recruited human testers and their shared mirroring sessions.
        self.testers = TesterPool()
        registry = server.obs.registry
        orphans = registry.gauge(
            "orphaned_jobs", "Queued jobs pinned to an unregistered vantage point."
        ).labels()
        registry.add_collect_hook(lambda: orphans.set(float(len(self.orphaned_jobs()))))

    # -- membership --------------------------------------------------------------------
    def register_vantage_point(
        self,
        controller: VantagePointController,
        request: JoinRequest,
    ) -> VantagePointRecord:
        """Run the join procedure for a new member and register its vantage point."""
        server = self._server
        if request.node_identifier in self._vantage_points:
            raise AccessServerError(
                f"a vantage point named {request.node_identifier!r} is already registered"
            )
        report = provision_vantage_point(
            controller,
            request,
            access_server_key=server.ssh_key,
            access_server_address=server.public_address,
            dns_registry=server.dns,
            certificate=server.wildcard_certificate,
        )
        if not report.succeeded:
            failed = ", ".join(step.name for step in report.failed_steps())
            raise AccessServerError(
                f"vantage point {request.node_identifier!r} failed provisioning: {failed}"
            )
        record = VantagePointRecord(
            name=request.node_identifier,
            controller=controller,
            institution=request.institution,
            dns_name=report.dns_name,
            report=report,
        )
        self._vantage_points[record.name] = record
        for serial in controller.list_devices():
            server.scheduler.slots.register(record.name, serial)
        if server.recording:
            from repro.accessserver.persistence.codec import serialize_vantage_point

            server.record("vantage_point.registered", serialize_vantage_point(record))
        server.log("vantage point registered", name=record.name, devices=controller.list_devices())
        return record

    def vantage_point(self, name: str) -> VantagePointRecord:
        try:
            return self._vantage_points[name]
        except KeyError:
            raise AccessServerError(f"unknown vantage point {name!r}") from None

    def vantage_points(self) -> List[VantagePointRecord]:
        return [self._vantage_points[name] for name in sorted(self._vantage_points)]

    def open_ssh_channel(self, vantage_point_name: str) -> SshChannel:
        """Open an authenticated SSH channel to a vantage point controller."""
        record = self.vantage_point(vantage_point_name)
        server = self._server
        return record.controller.ssh_server.open_channel(server.ssh_key, server.public_address)

    def orphaned_jobs(self) -> List[Job]:
        """Waiting jobs pinned to a vantage point that is not registered, by job id.

        After crash recovery these are the journaled jobs whose vantage
        point has not re-joined.  A queued job is an orphan exactly when its
        constraint bucket names an unregistered vantage point, so the queue
        is walked only when such a bucket exists.
        """
        scheduler = self._server.scheduler
        registered = self._vantage_points

        def unregistered(vantage_point: Optional[str]) -> bool:
            return vantage_point is not None and vantage_point not in registered

        orphaned = [
            job
            for job in scheduler.awaiting_approval.values()
            if unregistered(job.spec.constraints.vantage_point)
        ]
        missing = {vp for vp, _ in scheduler.queue.bucket_sizes() if unregistered(vp)}
        if missing:
            orphaned.extend(
                job
                for job in scheduler.queue.jobs()
                if job.spec.constraints.vantage_point in missing
            )
        orphaned.sort(key=lambda job: job.job_id)
        return orphaned

    # -- user accounts -----------------------------------------------------------------
    def create_user(
        self,
        admin: User,
        username: str,
        role: Union[str, Role],
        token: str,
        email: str = "",
    ) -> User:
        """Open a platform account on an administrator's authority.

        The account (with its token hash, never the plaintext) is journaled
        when persistence is enabled, so remotely created users survive a
        restart and can authenticate against the recovered server.
        """
        server = self._server
        server.users.authorize(admin, Permission.MANAGE_USERS)
        if username in server.users:
            # A state conflict, not a malformed request: a federation
            # reads it as "this shard holds the account already".
            raise AccessServerError(f"user {username!r} already exists")
        user = server.users.add_user(username, Role(role), token, email=email)
        if server.recording:
            from repro.accessserver.persistence.codec import serialize_user

            server.record("user.created", serialize_user(user))
        server.log(
            "user created", username=username, role=user.role.value, by=admin.username
        )
        return user

    def bootstrap_admin(self, username: str = "admin", token: str = "admin-token") -> User:
        """Create the initial administrator account."""
        return self._server.users.add_user(username, Role.ADMIN, token)

    # -- credits -----------------------------------------------------------------------
    @property
    def credit_policy(self) -> Optional[CreditPolicy]:
        return self._credit_policy

    def enable_credit_system(
        self,
        contribution_multiplier: float = 1.5,
        initial_grant_device_hours: float = 5.0,
        minimum_reservation_hours: float = 0.25,
    ) -> CreditLedger:
        """Turn on the access-by-credit model sketched in the paper's conclusion.

        Once enabled, a job whose payer (:meth:`payer`) cannot afford it is
        refused; institutions that contribute vantage points earn credits
        for the device time they make available (see
        :mod:`repro.accessserver.credits`).  Returns the ledger so callers
        can open contributor accounts and award contributions.

        Idempotent: when the credit system is already on — typically because
        crash recovery restored it, balances included — the existing ledger
        is returned untouched rather than replaced with an empty one, so
        boot code may call this unconditionally after ``enable_persistence``.
        """
        server = self._server
        if self._credit_policy is not None:
            server.log("credit system already enabled; keeping existing ledger")
            return self._credit_policy.ledger
        ledger = CreditLedger(
            contribution_multiplier=contribution_multiplier,
            initial_grant_device_hours=initial_grant_device_hours,
        )
        self._credit_policy = CreditPolicy(
            ledger, minimum_reservation_hours=minimum_reservation_hours
        )
        # Every ledger mutation is recorded (journal, analytics) and
        # published for remote ``credit.`` event subscribers.
        ledger.observer = self._on_ledger_event
        # The "credit" scheduling policy weighs owners by remaining balance;
        # feed it live ledger balances through the dispatch stats.
        server.scheduler.set_credit_balance_provider(self._credit_balances)
        server.record(
            "credit.enabled",
            {
                "contribution_multiplier": contribution_multiplier,
                "initial_grant_device_hours": initial_grant_device_hours,
                "minimum_reservation_hours": minimum_reservation_hours,
            },
        )
        server.log("credit system enabled")
        return ledger

    def _credit_balances(self) -> Dict[str, float]:
        return {
            account.owner: account.balance_device_hours
            for account in self._credit_policy.ledger.accounts()
        }

    def _on_ledger_event(self, change: str, data: Dict[str, object]) -> None:
        """The ledger's one observer: record the mutation, then publish it."""
        kind = "credit.txn" if change == "transaction" else "credit.account_opened"
        server = self._server
        server.record(kind, dict(data))
        server.events.publish(kind, **data)

    def _account(self, owner: str) -> CreditAccount:
        """``owner``'s credit account, opened (initial grant included) if missing."""
        ledger = self._credit_policy.ledger
        if owner in ledger:
            return ledger.account(owner)
        return ledger.open_account(owner, now=self._server.context.now)

    def payer(self, owner: str) -> Optional[str]:
        """The account a job owned by ``owner`` bills, or ``None`` when it runs free.

        The owner pays, unless it is an administrator account (maintenance
        jobs) or the credit system is off.  Admission and settlement both
        ask this, so a job is never checked against one account and billed
        to another.
        """
        if self._credit_policy is None:
            return None
        users = self._server.users
        if owner in users and users.get(owner).role is Role.ADMIN:
            return None
        return owner

    def admit(self, spec: JobSpec) -> None:
        """Raise ``CreditError`` unless the job's payer can afford its timeout."""
        payer = self.payer(spec.owner)
        if payer is not None:
            self._account(payer)
            self._credit_policy.authorize(payer, estimated_device_hours=spec.timeout_s / 3600.0)

    def bill(self, job: Job, held_since: float) -> None:
        """Charge the job's payer for the time its devices were held, up to now.

        Held time, not ``job.duration_s``: a job cancelled mid-execution
        never gets a ``finished_at``, yet it occupied its devices until
        now.  The charge is clamped to the balance.
        """
        payer = self.payer(job.spec.owner)
        if payer is None:
            return
        now = self._server.context.now
        consumed_hours = min((now - held_since) / 3600.0, self._account(payer).balance_device_hours)
        self._credit_policy.settle(payer, consumed_hours, now, note=f"job {job.job_id}")

    def grant_credits(
        self, admin: User, owner: str, amount_device_hours: float, note: str = ""
    ) -> CreditAccount:
        """Administrative credit adjustment; opens the account when missing.

        Returns the (possibly new) :class:`~repro.accessserver.credits.CreditAccount`.
        The ledger's observer records the transaction, so grants replay
        exactly on recovery.
        """
        server = self._server
        server.users.authorize(admin, Permission.MANAGE_CREDITS)
        if self._credit_policy is None:
            raise AccessServerError("the credit system is not enabled on this server")
        account = self._account(owner)
        self._credit_policy.ledger.adjust(
            owner,
            amount_device_hours,
            server.context.now,
            note=note or f"grant by {admin.username}",
        )
        server.log(
            "credits granted",
            owner=owner,
            amount_device_hours=amount_device_hours,
            by=admin.username,
        )
        return account

    # -- testers -----------------------------------------------------------------------
    def share_with_tester(
        self,
        experimenter: User,
        tester_id: int,
        vantage_point_name: str,
        device_serial: str,
        duration_s: float,
        show_toolbar: bool = False,
    ):
        """Share a mirrored device with a recruited tester for manual interaction."""
        self._server.users.authorize(experimenter, Permission.REMOTE_CONTROL)
        record = self.vantage_point(vantage_point_name)
        session = record.controller.start_mirroring(device_serial)
        session.novnc.toolbar.visible = show_toolbar
        tester_session = self.testers.open_session(
            tester_id,
            vantage_point_name,
            device_serial,
            now=self._server.context.now,
            duration_s=duration_s,
            toolbar_visible=show_toolbar,
        )
        session.connect_viewer(tester_session.tester.name, role="tester")
        return tester_session
