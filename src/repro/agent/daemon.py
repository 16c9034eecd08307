"""The vantage-point agent daemon: poll, claim, execute, report.

:class:`AgentDaemon` is the long-running process an operator starts next to
a vantage point's devices (``repro agent`` on the CLI).  Its loop:

1. **register** — announce identity, connector types and tags (idempotent);
2. **resume** — replay the outbox journal: finish half-run jobs without
   re-executing journaled phases, and re-upload results whose server ack
   was lost (the server answers ``duplicate`` if the first upload landed);
3. **poll** — ``agent.poll``, optionally long-polling server-side;
4. **claim** — ``agent.claim`` the first offer; multi-device jobs arrive
   with every slot already held all-or-nothing under one lease;
5. **execute** — run the configured connector's provision → test → cleanup
   phases, journaling each outcome and renewing the lease between phases
   (not after the last: the report that follows settles the lease);
6. **report** — ``agent.report`` the terminal status, then journal the ack.

Two failure contracts (see :mod:`repro.agent.outbox` for the resume rules):

* **kill -9** — every journal append happens *before* the daemon acts on
  the recorded step, so a kill anywhere leaves the outbox describing
  exactly what to do next.
* **power loss** — the outbox is fsync'd once per lease, as the lease
  settles, so a restart after a power loss remembers only settled leases.
  A lease the daemon had not reported lapses on the server, which offers
  the job again after the TTL; one it had reported is never run again,
  and the server's settled-lease memory keeps every report exactly-once.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.agent.connectors import (
    CONNECTOR_PHASES,
    PHASE_FAILED,
    ConnectorContext,
    PhaseResult,
    create_connector,
)
from repro.agent.outbox import Outbox
from repro.api.errors import ApiError, NotFoundApiError, TransportApiError
from repro.api.schemas import AgentLeaseView, AgentView, json_safe
from repro.obs import component_logger

__all__ = ["AgentDaemon"]

#: :meth:`AgentDaemon.run_forever` pauses: after a short poll that found
#: nothing, and before retrying an unreachable gateway.
_IDLE_SLEEP_S = 0.2
_RETRY_SLEEP_S = 1.0


class AgentDaemon:
    """One edge daemon bound to a client, an outbox and a connector type.

    Parameters
    ----------
    client:
        A :class:`~repro.api.client.BatteryLabClient` authenticated as a
        user holding the ``run_job`` permission.
    agent_id:
        Stable identity; re-registration under the same id refreshes
        capabilities instead of creating a new agent.
    outbox:
        The journal path (or a prepared :class:`~repro.agent.outbox.Outbox`)
        backing crash recovery and exactly-once uploads.
    connector:
        Registered connector type to execute jobs with; ``connectors``
        optionally announces additional types this daemon could serve.
    """

    def __init__(
        self,
        client,
        agent_id: str,
        outbox,
        connector: str = "fake",
        vantage_point: Optional[str] = None,
        tags: Optional[Dict[str, str]] = None,
        connector_config: Optional[Dict[str, object]] = None,
        connectors: Optional[List[str]] = None,
        lease_ttl_s: float = 30.0,
    ) -> None:
        self.client = client
        self.agent_id = agent_id
        self.outbox = outbox if isinstance(outbox, Outbox) else Outbox(str(outbox))
        self.connector_type = connector
        self.vantage_point = vantage_point
        self.tags = dict(tags or {})
        self.connector_config = dict(connector_config or {})
        self.announced_connectors = sorted(set(connectors or ()) | {connector})
        self.lease_ttl_s = lease_ttl_s
        self._log = component_logger("repro.agent.daemon")

    # -- lifecycle ------------------------------------------------------------
    def register(self) -> AgentView:
        """Announce this daemon to the server (idempotent)."""
        view = self.client.agent_register(
            self.agent_id,
            vantage_point=self.vantage_point,
            connectors=self.announced_connectors,
            tags=self.tags,
        )
        self._log.info(
            "agent %s registered (connectors=%s)",
            self.agent_id,
            ",".join(self.announced_connectors),
        )
        return view

    def resume(self) -> List[int]:
        """Finish every half-done lease the outbox remembers.

        Journaled phases are never re-executed; results whose ack was lost
        are re-uploaded (idempotently).  Returns the settled job ids.
        """
        settled: List[int] = []
        states = self.outbox.lease_states()
        for lease_id in self.outbox.pending():
            job_id = self._finish_lease(lease_id, states[lease_id])
            if job_id is not None:
                settled.append(job_id)
        return settled

    def run_once(self, wait_s: float = 0.0) -> Optional[int]:
        """One poll → claim → execute → report cycle.

        Returns the settled job id, or ``None`` when nothing was claimable
        (or the claim was lost to a racing agent — a normal outcome, not an
        error).
        """
        poll = self.client.agent_poll(self.agent_id, wait_s=wait_s)
        for offer in poll.offers:
            try:
                lease = self.client.agent_claim(
                    self.agent_id, offer.job_id, ttl_s=self.lease_ttl_s
                )
            except ApiError:
                continue  # another agent won the race; try the next offer
            return self.execute(lease)
        return None

    def run_forever(
        self,
        poll_wait_s: float = 2.0,
        once: bool = False,
        duration_s: Optional[float] = None,
    ) -> Iterator[int]:
        """Serve cycles until the stop condition, yielding each settled job id.

        ``once`` stops after one cycle and ``duration_s`` after the first
        cycle that ends past it (``None``: serve until interrupted); a
        gateway outage is retried but outlasts neither.  Pending leases are
        finished (:meth:`resume`) on entry and after an outage — a result
        whose upload the disconnect cut short is waiting there — not per
        cycle: nothing else can leave one pending.  A resume reads no file;
        the outbox keeps its fold in memory.  Call :meth:`register` first.
        """
        deadline = None if duration_s is None else time.monotonic() + duration_s
        replay = True
        while True:
            pause_s = 0.0
            try:
                if replay:
                    yield from self.resume()
                    replay = False
                job_id = self.run_once(wait_s=poll_wait_s)
                if job_id is not None:
                    yield job_id
                elif poll_wait_s <= 0:
                    pause_s = _IDLE_SLEEP_S
            except TransportApiError as exc:
                self._log.warning("gateway unreachable (%s); retrying", exc)
                replay = True
                pause_s = _RETRY_SLEEP_S
            if once or (deadline is not None and time.monotonic() >= deadline):
                return
            if pause_s:
                time.sleep(pause_s)

    # -- execution ------------------------------------------------------------
    def execute(self, lease: AgentLeaseView) -> Optional[int]:
        """Run a freshly claimed lease end to end."""
        self.outbox.append(
            "claim",
            lease_id=lease.lease_id,
            agent_id=self.agent_id,
            job_id=lease.job_id,
            job_name=lease.job_name,
            owner=lease.owner,
            payload=lease.payload,
            devices=[[d.vantage_point, d.device_serial] for d in lease.devices],
        )
        ctx = self._context(
            lease.job_id,
            lease.job_name,
            lease.owner,
            lease.payload,
            [(d.vantage_point, d.device_serial) for d in lease.devices],
        )
        result_record = self._run_phases(lease.lease_id, ctx, [], set())
        if result_record is None:
            return None
        return self._upload(lease.lease_id, result_record)

    def _finish_lease(
        self, lease_id: str, state: Dict[str, object]
    ) -> Optional[int]:
        result_record = state["result"]
        if result_record is None:
            claim = state["claim"]
            done_records = list(state["phases"])
            done_results = [PhaseResult.from_record(p) for p in done_records]
            done = {r.phase for r in done_results}
            ctx = self._context(
                int(claim["job_id"]),
                str(claim.get("job_name", "")),
                str(claim.get("owner", "")),
                claim.get("payload"),
                [tuple(d) for d in claim.get("devices", [])],
            )
            # Crashed mid-run: the lease must still be ours to continue.
            try:
                self.client.agent_heartbeat(lease_id, self.agent_id)
            except NotFoundApiError:
                # Expired while we were dead; the server requeued the job
                # and someone else may be running it.
                return self._abandon(lease_id, ctx, done, "lease expired while down")
            for record in done_records:
                # The test phase's computed result/children were journaled
                # with its phase record (the phase itself never re-runs, so
                # they are not re-derivable).
                if record.get("phase") == "test":
                    ctx.result = record.get("result")
                    ctx.children = list(record.get("children", ()))
            result_record = self._run_phases(lease_id, ctx, done_results, done)
            if result_record is None:
                return None
        return self._upload(lease_id, result_record)

    def _context(
        self,
        job_id: int,
        job_name: str,
        owner: str,
        payload: Optional[str],
        devices: List[Tuple[str, str]],
    ) -> ConnectorContext:
        primary_vp, primary_serial = devices[0] if devices else ("", "")
        return ConnectorContext(
            job_id=job_id,
            job_name=job_name,
            owner=owner,
            payload=payload,
            vantage_point=primary_vp,
            device_serial=primary_serial,
            credentials={"username": self.client.username, "owner": owner},
            extra_devices=[tuple(d) for d in devices[1:]],
            config=dict(self.connector_config),
        )

    def _run_phases(
        self,
        lease_id: str,
        ctx: ConnectorContext,
        results: List[PhaseResult],
        already_done: Set[str],
    ) -> Optional[Dict[str, object]]:
        """Run the phases not yet journaled; returns the result record.

        A failed provision or test never skips cleanup — the device must be
        released regardless.  Returns ``None`` when the lease lapsed
        mid-run (see :meth:`_abandon`).
        """
        connector = create_connector(self.connector_type, self.connector_config)
        for phase in CONNECTOR_PHASES:
            if phase in already_done:
                continue
            result = connector.run_phase(phase, ctx)
            results.append(result)
            extra: Dict[str, object] = {}
            if phase == "test":
                # Journal what the test computed: a crash between here and
                # the result record must not lose it — the phase is marked
                # done and will never execute again.
                extra["result"] = (
                    ctx.result if json_safe(ctx.result) else repr(ctx.result)
                )
                if ctx.children:
                    extra["children"] = self._children_record(ctx.children)
            self.outbox.append(
                "phase", lease_id=lease_id, **result.to_record(), **extra
            )
            if phase == CONNECTOR_PHASES[-1]:
                # The report is the very next request and settles the
                # lease; an expiry is caught there (see _upload).
                break
            try:
                self.client.agent_heartbeat(lease_id, self.agent_id)
            except NotFoundApiError:
                done = {r.phase for r in results}
                return self._abandon(lease_id, ctx, done, "lease expired mid-run")
            except ApiError:
                pass  # transient renewal trouble; the TTL may still hold
        failed = [r for r in results if r.status == PHASE_FAILED]
        status = "failed" if failed else "completed"
        result_value = ctx.result if json_safe(ctx.result) else repr(ctx.result)
        return self.outbox.append(
            "result",
            lease_id=lease_id,
            status=status,
            result=result_value,
            error="; ".join(f"{r.phase}: {r.output}" for r in failed) or None,
            children=self._children_record(ctx.children),
        )

    def _abandon(
        self, lease_id: str, ctx: ConnectorContext, done: Set[str], reason: str
    ) -> None:
        """The lease lapsed (the job is requeued): run cleanup unless it is
        journaled already, never the test, then discard the lease."""
        if CONNECTOR_PHASES[-1] not in done:
            connector = create_connector(self.connector_type, self.connector_config)
            result = connector.run_phase(CONNECTOR_PHASES[-1], ctx)
            self.outbox.append("phase", lease_id=lease_id, **result.to_record())
        self.outbox.append("discarded", lease_id=lease_id, reason=reason)

    @staticmethod
    def _children_record(children: List[Dict[str, object]]) -> List[Dict[str, object]]:
        return [
            {
                "vantage_point": child.get("vantage_point"),
                "device_serial": child.get("device_serial"),
                "status": child.get("status"),
                "output": child.get("output", ""),
            }
            for child in children
        ]

    def _upload(self, lease_id: str, record: Dict[str, object]) -> Optional[int]:
        """Report the journaled result; exactly-once thanks to both sides.

        Raises :class:`~repro.api.errors.TransportApiError` when the
        gateway is unreachable — the result stays in the outbox and the
        next :meth:`resume` retries.
        """
        try:
            view = self.client.agent_report(
                lease_id,
                self.agent_id,
                str(record["status"]),
                result=record.get("result"),
                error=record.get("error"),
                children=list(record.get("children") or []),
            )
        except NotFoundApiError:
            # The lease expired before the upload landed: the server
            # requeued the job and this result must not win — discard.
            self.outbox.append(
                "discarded", lease_id=lease_id, reason="lease unknown at upload"
            )
            return None
        self.outbox.append(
            "uploaded", lease_id=lease_id, duplicate=view.duplicate
        )
        return view.job.job_id
