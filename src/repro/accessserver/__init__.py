"""Access server substrate.

BatteryLab's access server (Section 3.1) manages the vantage points and
schedules experiments on them.  The paper builds it on Jenkins in AWS; this
package reproduces the behaviours the platform depends on rather than
Jenkins itself:

* :mod:`~repro.accessserver.auth` — users, roles and the role-based
  authorization matrix guarding job creation/edit/run;
* :mod:`~repro.accessserver.jobs` — job specifications, job state, logs and
  per-job workspaces with retention;
* :mod:`~repro.accessserver.scheduler` — the one owner of the job table,
  the queue, the device slots, reservations and the approval queue; its
  ``dispatch_batch`` dispatches jobs subject to experimenter constraints
  (target device, connectivity) and platform constraints (one job at a time
  per device, low controller CPU);
* :mod:`~repro.accessserver.dispatch` — the indexes the scheduler decides
  over (free-slot index, reservation interval index, a queue split by
  execution plane and bucketed by constraint);
* :mod:`~repro.accessserver.accounts` — the accounts seam: registered
  vantage points, user accounts, the credit ledger with the one rule for
  who pays, tester sharing, and the orphan view over the queue;
* :mod:`~repro.accessserver.agents` — the agent plane: registered edge
  daemons, their leases, and poll / claim / heartbeat / report over them,
  matched through the scheduler's one slot matcher;
* :mod:`~repro.accessserver.policies` — pluggable queue ordering policies
  (FIFO, priority, per-owner fair-share, earliest-deadline-first);
* :mod:`~repro.accessserver.persistence` — durable state: a write-ahead
  JSONL journal with fsync batching, periodic snapshots with log
  compaction, and crash recovery that replays the queue, reservations and
  credit ledger into a fresh server;
* :mod:`~repro.accessserver.payloads` — the catalogue of named job payloads
  a record, a request or an agent's claim refers to;
* :mod:`~repro.accessserver.dns` — the Route53-style ``batterylab.dev`` zone;
* :mod:`~repro.accessserver.certificates` — wildcard Let's Encrypt-style
  certificates and their renewal;
* :mod:`~repro.accessserver.maintenance` — the built-in management jobs
  (certificate deployment, power-monitor safety, factory reset);
* :mod:`~repro.accessserver.testers` — recruitment of human testers and
  shared mirroring sessions;
* :class:`~repro.accessserver.server.AccessServer` — the piece that ties it
  all together.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.accessserver.accounts import Accounts, VantagePointRecord
    from repro.accessserver.auth import (
        AuthenticationError,
        AuthorizationError,
        Permission,
        Role,
        User,
        UserRegistry,
    )
    from repro.accessserver.certificates import CertificateAuthority, WildcardCertificate
    from repro.accessserver.dns import DnsRecord, DnsZone
    from repro.accessserver.jobs import Job, JobContext, JobSpec, JobStatus
    from repro.accessserver.credits import (
        CreditAccount,
        CreditError,
        CreditLedger,
        CreditPolicy,
        CreditTransaction,
    )
    from repro.accessserver.maintenance import (
        build_certificate_renewal_job,
        build_factory_reset_job,
        build_power_safety_job,
        build_workspace_cleanup_job,
    )
    from repro.accessserver.dispatch import Assignment, SchedulingError
    from repro.accessserver.persistence import (
        FileBackend,
        InMemoryBackend,
        PersistenceError,
        PersistenceManager,
        RecoveryReport,
        StorageBackend,
        recover_into,
    )
    from repro.accessserver.payloads import (
        get_payload,
        register_payload,
        unregister_payload,
    )
    from repro.accessserver.policies import (
        CreditSharePolicy,
        DeadlinePolicy,
        FairSharePolicy,
        FifoPolicy,
        PriorityPolicy,
        SchedulingPolicy,
        create_policy,
    )
    from repro.accessserver.scheduler import JobScheduler, SessionReservation
    from repro.accessserver.server import AccessServer
    from repro.accessserver.testers import Tester, TesterPool, TesterSession

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "accounts": ("Accounts", "VantagePointRecord"),
        "auth": (
            "AuthenticationError",
            "AuthorizationError",
            "Permission",
            "Role",
            "User",
            "UserRegistry",
        ),
        "certificates": ("CertificateAuthority", "WildcardCertificate"),
        "dns": ("DnsRecord", "DnsZone"),
        "jobs": ("Job", "JobContext", "JobSpec", "JobStatus"),
        "credits": (
            "CreditAccount",
            "CreditError",
            "CreditLedger",
            "CreditPolicy",
            "CreditTransaction",
        ),
        "maintenance": (
            "build_certificate_renewal_job",
            "build_factory_reset_job",
            "build_power_safety_job",
            "build_workspace_cleanup_job",
        ),
        "dispatch": ("Assignment", "SchedulingError"),
        "persistence": (
            "FileBackend",
            "InMemoryBackend",
            "PersistenceError",
            "PersistenceManager",
            "RecoveryReport",
            "StorageBackend",
            "recover_into",
        ),
        "payloads": ("get_payload", "register_payload", "unregister_payload"),
        "policies": (
            "CreditSharePolicy",
            "DeadlinePolicy",
            "FairSharePolicy",
            "FifoPolicy",
            "PriorityPolicy",
            "SchedulingPolicy",
            "create_policy",
        ),
        "scheduler": ("JobScheduler", "SessionReservation"),
        "server": ("AccessServer",),
        "testers": ("Tester", "TesterPool", "TesterSession"),
    },
)
