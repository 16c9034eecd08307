"""Built-in vantage-point management jobs.

Section 3.1: "We have developed several jobs which manage the vantage
points.  These jobs span from updating BatteryLab wildcard certificates, to
ensure the power meter is not active when not needed (for safety reasons),
or to factory reset a device."  Each builder below returns a
:class:`~repro.accessserver.jobs.JobSpec` that the access server schedules
like any experimenter job but owned by the platform administrator.
"""

from __future__ import annotations

from typing import Optional

from repro.accessserver.certificates import CertificateAuthority, WildcardCertificate, deploy_certificate
from repro.accessserver.jobs import JobConstraints, JobContext, JobSpec


def build_certificate_renewal_job(
    server,
    owner: str = "admin",
) -> JobSpec:
    """Renew the platform wildcard certificate (if due) and deploy it everywhere.

    ``server`` is the :class:`~repro.accessserver.server.AccessServer`; the
    job uses its CA, its current certificate and its SSH channels.
    """

    def run(ctx: JobContext) -> dict:
        ca: CertificateAuthority = server.certificate_authority
        current: Optional[WildcardCertificate] = server.wildcard_certificate
        renewed = ca.renew_if_needed(current, ctx.now)
        deployed_to = []
        if renewed is not None:
            server.set_wildcard_certificate(renewed)
            for record in server.vantage_points():
                channel = server.open_ssh_channel(record.name)
                path = deploy_certificate(channel, renewed)
                channel.close()
                deployed_to.append(f"{record.name}:{path}")
                ctx.log(f"deployed renewed certificate to {record.name}")
        else:
            ctx.log("certificate still valid; nothing to do")
        return {
            "renewed": renewed is not None,
            "serial": renewed.serial_number if renewed else (current.serial_number if current else None),
            "deployed_to": deployed_to,
        }

    return JobSpec(
        name="maintenance-certificate-renewal",
        owner=owner,
        run=run,
        description="Renew the *.batterylab.dev certificate and deploy it to every vantage point",
        constraints=JobConstraints(),
        log_retention_days=30.0,
    )


def build_power_safety_job(server, vantage_point: str, owner: str = "admin") -> JobSpec:
    """Ensure the power meter at a vantage point is off while no job needs it."""

    def run(ctx: JobContext) -> dict:
        record = server.vantage_point(vantage_point)
        controller = record.controller
        monitor = controller.monitor
        socket = controller.power_socket
        actions = []
        if monitor is not None and socket is not None:
            if monitor.sampling:
                ctx.log("monitor is actively sampling; leaving it powered")
            elif socket.is_on:
                controller.set_power_monitor(False)
                actions.append("powered off monitor")
                ctx.log("monitor idle: powered it off for safety")
        return {"vantage_point": vantage_point, "actions": actions}

    return JobSpec(
        name=f"maintenance-power-safety-{vantage_point}",
        owner=owner,
        run=run,
        description="Power the Monsoon off when no experiment needs it (safety)",
        constraints=JobConstraints(vantage_point=vantage_point),
        log_retention_days=7.0,
    )


def build_workspace_cleanup_job(server, owner: str = "admin") -> JobSpec:
    """Purge job workspaces whose retention period has elapsed.

    The paper keeps power-meter logs "available for several days within the
    job's workspace" (Section 3.1); this job is the other half of that
    statement — once the retention window passes, the artefacts are removed
    so the access server's storage stays bounded.
    """

    def run(ctx: JobContext) -> dict:
        purged = []
        for job in server.scheduler.jobs():
            if job.artifact_names() and job.workspace_expired(ctx.now):
                job.workspace.artifacts.clear()
                purged.append(job.job_id)
                ctx.log(f"purged workspace of job {job.job_id}")
        return {"purged_jobs": purged, "count": len(purged)}

    return JobSpec(
        name="maintenance-workspace-cleanup",
        owner=owner,
        run=run,
        description="Delete job artefacts whose retention window has elapsed",
        constraints=JobConstraints(),
        log_retention_days=3.0,
    )


def build_factory_reset_job(
    server, vantage_point: str, device_serial: str, owner: str = "admin"
) -> JobSpec:
    """Factory-reset one test device at a vantage point."""

    def run(ctx: JobContext) -> dict:
        record = server.vantage_point(vantage_point)
        output = record.controller.factory_reset(device_serial)
        ctx.log(output)
        return {"device": device_serial, "result": output}

    return JobSpec(
        name=f"maintenance-factory-reset-{device_serial}",
        owner=owner,
        run=run,
        description=f"Factory reset device {device_serial} at {vantage_point}",
        constraints=JobConstraints(vantage_point=vantage_point, device_serial=device_serial),
        log_retention_days=7.0,
    )
