"""Pluggable scheduling policies for the dispatch pipeline.

The paper only mandates *constraints* ("dispatch queued jobs based on
experimenter constraints ... and BatteryLab constraints", Section 3.1) but
stays silent on *ordering* when several queued jobs compete for the same
devices.  The seed hard-coded FIFO; this module makes the ordering a
pluggable :class:`SchedulingPolicy` so a multi-tenant deployment can pick
what fits its community:

* ``fifo`` — submission order, the seed behaviour and the default;
* ``priority`` — highest :attr:`repro.accessserver.jobs.JobSpec.priority`
  first, FIFO within a priority level;
* ``fair-share`` — round-robin across job owners, preferring owners with
  the fewest running jobs, FIFO within an owner;
* ``deadline`` — earliest deadline first (EDF), where a job's deadline is
  ``submitted_at + timeout_s``: the latest moment its device time could
  still elapse in full; ties keep submission order;
* ``credit`` — weighted fair-share with each owner's remaining charge
  balance (credit device-hours) as the weight: well-funded members drain
  their queues proportionally faster, drained accounts yield the fleet.

A policy only *orders* the queue snapshot for one dispatch tick; the
constraint checks (free device, reservations, controller CPU) stay in
:class:`repro.accessserver.scheduler.JobScheduler`.  Policies are selected
by name at any layer: ``JobScheduler(policy=...)``,
``AccessServer(scheduling_policy=...)``,
``build_default_platform(scheduling_policy=...)`` or the CLI's
``--scheduling-policy`` flag; per-job scheduling input (the priority level)
travels on the :class:`~repro.accessserver.jobs.JobSpec`.
"""

from __future__ import annotations

import abc
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Sequence, Union

from repro.accessserver.jobs import Job


class PolicyError(ValueError):
    """Raised when an unknown scheduling policy is requested."""


@dataclass(frozen=True)
class DispatchStats:
    """Queue-wide statistics a policy may consult when ordering jobs.

    Attributes
    ----------
    now:
        Simulated time of the dispatch tick.
    running_by_owner:
        Number of currently RUNNING jobs per owner username; owners with
        no running job are absent.
    credit_balance_by_owner:
        Remaining credit balance (device-hours) per owner, populated only
        while the access server's credit system is enabled; empty
        otherwise.  Consumed by the ``credit`` policy as its fair-share
        weight.
    """

    now: float = 0.0
    running_by_owner: Mapping[str, int] = field(default_factory=dict)
    credit_balance_by_owner: Mapping[str, float] = field(default_factory=dict)


class SchedulingPolicy(abc.ABC):
    """Orders the queued jobs considered by one dispatch tick.

    ``order`` receives the queue snapshot in FIFO (submission) order and
    returns the jobs in the order the dispatcher should try to place them.
    It must return a permutation of its input — policies never drop or
    invent jobs, they only reorder.
    """

    name: str = "base"

    @abc.abstractmethod
    def order(self, jobs: Sequence[Job], stats: DispatchStats) -> List[Job]:
        """Return ``jobs`` in dispatch order."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class FifoPolicy(SchedulingPolicy):
    """Submission order — the seed scheduler's behaviour and the default."""

    name = "fifo"

    def order(self, jobs: Sequence[Job], stats: DispatchStats) -> List[Job]:
        return list(jobs)


class PriorityPolicy(SchedulingPolicy):
    """Highest ``JobSpec.priority`` first; FIFO within one priority level."""

    name = "priority"

    def order(self, jobs: Sequence[Job], stats: DispatchStats) -> List[Job]:
        # sorted() is stable, so equal priorities keep submission order.
        return sorted(jobs, key=lambda job: -job.spec.priority)


class FairSharePolicy(SchedulingPolicy):
    """Round-robin across owners, favouring owners with fewer running jobs.

    Owners are charged one share per job they already have RUNNING plus one
    per job handed out earlier in the same tick, so a burst submitter cannot
    monopolise a freshly freed fleet.  Within one owner jobs stay FIFO; ties
    between owners break on who has the earliest queued job.
    """

    name = "fair-share"

    def order(self, jobs: Sequence[Job], stats: DispatchStats) -> List[Job]:
        queues: Dict[str, Deque[Job]] = {}
        first_position: Dict[str, int] = {}
        for position, job in enumerate(jobs):
            owner = job.spec.owner
            if owner not in queues:
                queues[owner] = deque()
                first_position[owner] = position
            queues[owner].append(job)

        heap = [
            (stats.running_by_owner.get(owner, 0), first_position[owner], owner)
            for owner in queues
        ]
        heapq.heapify(heap)
        ordered: List[Job] = []
        while heap:
            shares, position, owner = heapq.heappop(heap)
            ordered.append(queues[owner].popleft())
            if queues[owner]:
                heapq.heappush(heap, (shares + 1, position, owner))
        return ordered


class DeadlinePolicy(SchedulingPolicy):
    """Earliest deadline first (EDF) over ``submitted_at + timeout_s``.

    A job's timeout is the upper bound on the device time it may consume, so
    ``submitted_at + timeout_s`` is the natural implicit deadline: the
    earliest submission that tolerates the least waiting dispatches first.
    Ties (identical deadlines) keep submission order via sort stability.
    """

    name = "deadline"

    def order(self, jobs: Sequence[Job], stats: DispatchStats) -> List[Job]:
        return sorted(jobs, key=lambda job: job.submitted_at + job.spec.timeout_s)


class CreditSharePolicy(SchedulingPolicy):
    """Weighted fair-share with the remaining charge balance as the weight.

    The paper's conclusion sketches access-by-credit; this policy closes
    the loop between the ledger and the dispatcher: owners are served
    round-robin like ``fair-share``, but each owner's share count is
    divided by their remaining credit balance (device-hours), so members
    with more unspent credit drain their queues proportionally faster and
    an owner running on fumes yields the fleet to those still holding
    balance.  Owners without a ledger account — including every owner when
    the credit system is off — weigh in at one device-hour, which reduces
    the ordering to plain fair-share.  Within one owner jobs stay FIFO;
    ties break on who has the earliest queued job.
    """

    name = "credit"

    #: Weight for owners without a ledger account; also the floor for
    #: drained accounts so a zero balance cannot divide by zero.
    DEFAULT_WEIGHT = 1.0
    MINIMUM_WEIGHT = 1e-6

    def order(self, jobs: Sequence[Job], stats: DispatchStats) -> List[Job]:
        queues: Dict[str, Deque[Job]] = {}
        first_position: Dict[str, int] = {}
        for position, job in enumerate(jobs):
            owner = job.spec.owner
            if owner not in queues:
                queues[owner] = deque()
                first_position[owner] = position
            queues[owner].append(job)

        def weight(owner: str) -> float:
            balance = stats.credit_balance_by_owner.get(owner, self.DEFAULT_WEIGHT)
            return max(balance, self.MINIMUM_WEIGHT)

        # Virtual cost of an owner's next slot: (already running + handed out
        # this tick + the slot itself) / weight.  The "+1" makes the weight
        # bite from the very first pick — two idle owners differ by balance,
        # not just submission position.
        def key(owner: str, served: int) -> float:
            return (stats.running_by_owner.get(owner, 0) + served + 1) / weight(owner)

        heap = [(key(owner, 0), first_position[owner], owner) for owner in queues]
        heapq.heapify(heap)
        ordered: List[Job] = []
        served: Dict[str, int] = {}
        while heap:
            _, position, owner = heapq.heappop(heap)
            ordered.append(queues[owner].popleft())
            served[owner] = served.get(owner, 0) + 1
            if queues[owner]:
                heapq.heappush(heap, (key(owner, served[owner]), position, owner))
        return ordered


POLICIES = {
    FifoPolicy.name: FifoPolicy,
    PriorityPolicy.name: PriorityPolicy,
    FairSharePolicy.name: FairSharePolicy,
    DeadlinePolicy.name: DeadlinePolicy,
    # "edf" is the textbook name for the same ordering.
    "edf": DeadlinePolicy,
    CreditSharePolicy.name: CreditSharePolicy,
}


def policy_names() -> List[str]:
    """The registered policy names, for CLI choices and error messages."""
    return sorted(POLICIES)


def create_policy(policy: Union[str, SchedulingPolicy]) -> SchedulingPolicy:
    """Resolve ``policy`` (a name or an instance) to a policy instance.

    Names are case-insensitive and accept ``_`` for ``-`` so both
    ``"fair-share"`` and ``"fair_share"`` work.
    """
    if isinstance(policy, SchedulingPolicy):
        return policy
    key = str(policy).strip().lower().replace("_", "-")
    try:
        return POLICIES[key]()
    except KeyError:
        raise PolicyError(
            f"unknown scheduling policy {policy!r}; available: {', '.join(policy_names())}"
        ) from None
