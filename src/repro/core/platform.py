"""Platform assembly.

:func:`build_default_platform` recreates the deployment the paper evaluates:
an access server in the cloud plus a first vantage point at Imperial College
London consisting of "a Monsoon power meter, a Samsung J7 Duo (Android 8.0),
a Raspberry Pi 3B+, and a Meross power socket" (Section 4).  The returned
:class:`BatteryLabPlatform` is the convenient entry point the examples,
tests and experiment drivers build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.accessserver.auth import Role, User
from repro.accessserver.accounts import VantagePointRecord
from repro.accessserver.server import AccessServer
from repro.core.api import BatteryLabAPI
from repro.device.android import AndroidDevice
from repro.device.profiles import SAMSUNG_J7_DUO, DeviceHardwareProfile
from repro.network.link import NetworkLink
from repro.powermonitor.monsoon import MonsoonHVPM
from repro.simulation.entity import SimulationContext
from repro.vantagepoint.controller import VantagePointController
from repro.vantagepoint.power_socket import MerossPowerSocket
from repro.vantagepoint.provisioning import JoinRequest
from repro.workloads.browsers import BROWSER_PROFILES, BrowserApp, install_browser
from repro.workloads.video import VideoPlayerApp, install_video_player


@dataclass
class VantagePointHandle:
    """Everything an experimenter needs to drive one vantage point."""

    record: VantagePointRecord
    controller: VantagePointController
    monitor: MonsoonHVPM
    power_socket: MerossPowerSocket
    devices: List[AndroidDevice]
    browsers: Dict[str, Dict[str, BrowserApp]] = field(default_factory=dict)
    video_players: Dict[str, VideoPlayerApp] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.record.name

    def device(self, serial: Optional[str] = None) -> AndroidDevice:
        if serial is None:
            return self.devices[0]
        for device in self.devices:
            if device.serial == serial:
                return device
        raise KeyError(f"no device with serial {serial!r} at vantage point {self.name!r}")

    def browser(self, serial: str, name: str) -> BrowserApp:
        return self.browsers[serial][name.lower()]


@dataclass
class BatteryLabPlatform:
    """A fully assembled BatteryLab deployment (access server + vantage points).

    The platform exposes the dispatch pipeline's knobs directly:
    :meth:`set_scheduling_policy` swaps the queue ordering policy
    (``fifo``/``priority``/``fair-share``) and :meth:`run_queue` runs one
    pass of the access server's batch dispatcher.  Job
    submission and inspection go through :meth:`client` — the Platform API
    v1 SDK — rather than the access server's methods.
    """

    context: SimulationContext
    access_server: AccessServer
    admin: User
    experimenter: User
    vantage_points: Dict[str, VantagePointHandle] = field(default_factory=dict)
    #: Plaintext tokens for the bootstrap accounts, so :meth:`client` can
    #: authenticate without callers re-typing the well-known credentials.
    account_tokens: Dict[str, str] = field(default_factory=dict)
    #: The router every :meth:`client` shares, so the offer frames one
    #: client's call makes claimable reach every in-process subscriber.
    _router: Optional[object] = field(default=None, init=False, repr=False)

    def vantage_point(self, name: Optional[str] = None) -> VantagePointHandle:
        if name is None:
            name = sorted(self.vantage_points)[0]
        try:
            return self.vantage_points[name]
        except KeyError:
            raise KeyError(f"unknown vantage point {name!r}") from None

    def api(self, vantage_point: Optional[str] = None) -> BatteryLabAPI:
        """A Table 1 API bound to one vantage point (the first one by default)."""
        return BatteryLabAPI(self.vantage_point(vantage_point).controller)

    def run_for(self, duration_s: float) -> None:
        self.context.run_for(duration_s)

    def set_scheduling_policy(self, policy) -> None:
        """Select the dispatch queue ordering policy by name or instance."""
        self.access_server.set_scheduling_policy(policy)

    def run_queue(self):
        """One dispatch pass (``access_server.drain()`` runs the queue dry); returns the jobs run."""
        return self.access_server.run_pending_jobs()

    @property
    def persistence(self):
        """The access server's persistence manager, when state was enabled."""
        return self.access_server.persistence

    @property
    def analytics(self):
        """The live :class:`~repro.analytics.engine.AnalyticsEngine`, if enabled."""
        return self.access_server.analytics

    def client(self, username: str = "experimenter", token: Optional[str] = None):
        """A :class:`~repro.api.client.BatteryLabClient` for this platform.

        The sanctioned way to submit and inspect jobs: every call runs
        through the versioned Platform API v1 request/response layer (an
        in-process transport with full JSON round-tripping), exactly as a
        remote client over the socket gateway would.  ``token`` defaults to
        the bootstrap token of ``username`` when the platform created that
        account.
        """
        from repro.api.client import BatteryLabClient, InProcessTransport
        from repro.api.router import ApiRouter

        if token is None:
            token = self.account_tokens.get(username)
        if token is None:
            raise ValueError(
                f"no bootstrap token known for {username!r}; pass token= explicitly"
            )
        if self._router is None:
            self._router = ApiRouter(self.access_server)
        return BatteryLabClient(InProcessTransport(self._router), username, token)

    def serve_gateway(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        tls_cert_dir: Optional[str] = None,
        assume_https: bool = True,
        push_queue_limit: int = 256,
        router=None,
    ):
        """Start a JSON-lines socket gateway for this platform's API.

        With ``tls_cert_dir`` the gateway serves TLS using the platform's
        wildcard-certificate material under that directory (minted on
        demand via :func:`repro.accessserver.certificates.ensure_tls_material`)
        — the paper's HTTPS-only deployment shape.  ``assume_https=False``
        makes plaintext connections count as insecure, so the HTTPS-only
        user registry refuses to authenticate over them.  ``router`` serves
        another router behind this platform's certificate: ``repro
        federate`` fronts its federation with its first shard's.

        Returns the started :class:`~repro.api.gateway.ApiGateway`; callers
        own its lifecycle (``gateway.stop()``).
        """
        from repro.accessserver.certificates import (
            ensure_tls_material,
            server_tls_context,
        )
        from repro.api.gateway import ApiGateway
        from repro.api.router import ApiRouter

        tls_context = None
        if tls_cert_dir is not None:
            material = ensure_tls_material(
                tls_cert_dir, certificate=self.access_server.wildcard_certificate
            )
            tls_context = server_tls_context(material)
        gateway = ApiGateway(
            router if router is not None else ApiRouter(self.access_server),
            host=host,
            port=port,
            tls_context=tls_context,
            assume_https=assume_https,
            push_queue_limit=push_queue_limit,
        )
        gateway.start()
        return gateway


def _default_uplink(hostname: str) -> NetworkLink:
    """The Imperial College vantage point's (fast) campus uplink."""
    return NetworkLink(
        name=f"{hostname}-uplink", downlink_mbps=95.0, uplink_mbps=40.0, latency_ms=6.0
    )


def _slug(name: str) -> str:
    return "".join(ch if ch.isalnum() else "-" for ch in name.lower()).strip("-")


def device_profile_by_name(name: str) -> DeviceHardwareProfile:
    """Resolve a device profile by marketing name or slug.

    Accepts either the exact model string (``"Samsung J7 Duo"``) or its
    wire-friendly slug (``"samsung-j7-duo"``) — the form the Platform API's
    ``vantage-point.register`` operation carries.  Raises :class:`KeyError`
    naming the known profiles otherwise.
    """
    from repro.device.profiles import BUILTIN_PROFILES

    if name in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[name]
    wanted = _slug(name)
    for model, profile in BUILTIN_PROFILES.items():
        if _slug(model) == wanted:
            return profile
    known = ", ".join(sorted(_slug(model) for model in BUILTIN_PROFILES))
    raise KeyError(f"unknown device profile {name!r}; known profiles: {known}")


@dataclass
class AssembledVantagePoint:
    """A built-but-not-yet-registered vantage point: hardware + join request."""

    controller: VantagePointController
    request: JoinRequest
    monitor: MonsoonHVPM
    power_socket: MerossPowerSocket
    devices: List[AndroidDevice]
    browsers: Dict[str, Dict[str, BrowserApp]] = field(default_factory=dict)
    video_players: Dict[str, VideoPlayerApp] = field(default_factory=dict)


def assemble_vantage_point(
    context: SimulationContext,
    node_identifier: str,
    institution: str,
    device_profiles: Sequence[DeviceHardwareProfile] = (SAMSUNG_J7_DUO,),
    browsers: Sequence[str] = ("brave", "chrome", "edge", "firefox"),
    install_video: bool = True,
    uplink: Optional[NetworkLink] = None,
    home_region: str = "GB",
    contact_email: Optional[str] = None,
    public_address: Optional[str] = None,
) -> AssembledVantagePoint:
    """Build one vantage point's simulated hardware and its join request.

    Shared by the in-process :func:`add_vantage_point` helper and the
    Platform API v2 ``vantage-point.register`` operation — the remote path
    assembles exactly the hardware the local path would, then both register
    through :meth:`~repro.accessserver.accounts.Accounts.register_vantage_point`.
    """
    hostname = f"{node_identifier}.batterylab.dev"
    controller = VantagePointController(
        context,
        hostname=hostname,
        uplink=uplink or _default_uplink(node_identifier),
        home_region=home_region,
    )
    monitor = MonsoonHVPM(context, serial=f"HVPM-{node_identifier}")
    socket = MerossPowerSocket(context, name=f"{node_identifier}-socket", appliance=monitor)
    controller.attach_monitor(monitor, power_socket=socket)

    devices: List[AndroidDevice] = []
    browser_map: Dict[str, Dict[str, BrowserApp]] = {}
    video_map: Dict[str, VideoPlayerApp] = {}
    for index, profile in enumerate(device_profiles):
        serial = f"{node_identifier}-dev{index:02d}"
        device = AndroidDevice(context, serial=serial, profile=profile)
        controller.add_device(device)
        devices.append(device)
        browser_map[serial] = {}
        for browser_name in browsers:
            browser_map[serial][browser_name.lower()] = install_browser(
                device, browser_name, context, controller.network_path
            )
        if install_video:
            video_map[serial] = install_video_player(device, context)
            controller.adb_server(serial).write_file(
                "/sdcard/Movies/test.mp4", b"\x00" * 1024
            )

    request = JoinRequest(
        institution=institution,
        node_identifier=node_identifier,
        contact_email=contact_email
        or f"ops@{institution.lower().replace(' ', '-')}.example",
        public_address=public_address or "198.51.100.10",
    )
    return AssembledVantagePoint(
        controller=controller,
        request=request,
        monitor=monitor,
        power_socket=socket,
        devices=devices,
        browsers=browser_map,
        video_players=video_map,
    )


def add_vantage_point(
    platform: BatteryLabPlatform,
    node_identifier: str,
    institution: str,
    device_profiles: Sequence[DeviceHardwareProfile] = (SAMSUNG_J7_DUO,),
    browsers: Sequence[str] = ("brave", "chrome", "edge", "firefox"),
    install_video: bool = True,
    uplink: Optional[NetworkLink] = None,
    home_region: str = "GB",
) -> VantagePointHandle:
    """Assemble, provision and register one additional vantage point."""
    if node_identifier in platform.vantage_points:
        from repro.accessserver.server import AccessServerError

        raise AccessServerError(
            f"a vantage point named {node_identifier!r} is already registered"
        )
    assembled = assemble_vantage_point(
        platform.context,
        node_identifier=node_identifier,
        institution=institution,
        device_profiles=device_profiles,
        browsers=browsers,
        install_video=install_video,
        uplink=uplink,
        home_region=home_region,
        public_address=f"198.51.100.{len(platform.vantage_points) + 10}",
    )
    record = platform.access_server.accounts.register_vantage_point(
        assembled.controller, assembled.request
    )
    handle = VantagePointHandle(
        record=record,
        controller=assembled.controller,
        monitor=assembled.monitor,
        power_socket=assembled.power_socket,
        devices=assembled.devices,
        browsers=assembled.browsers,
        video_players=assembled.video_players,
    )
    platform.vantage_points[node_identifier] = handle
    return handle


def build_default_platform(
    seed: int = 7,
    node_identifier: str = "node1",
    browsers: Sequence[str] = ("brave", "chrome", "edge", "firefox"),
    device_count: int = 1,
    scheduling_policy: str = "fifo",
    reservation_admission: str = "ignore",
    state_dir: Optional[str] = None,
    persistence: bool = True,
    analytics: bool = True,
) -> BatteryLabPlatform:
    """Build the paper's deployment: access server + the Imperial College vantage point.

    Parameters
    ----------
    seed:
        Root seed for every random stream (repetitions use different seeds).
    node_identifier:
        Name of the first vantage point (``node1`` -> ``node1.batterylab.dev``).
    browsers:
        Browsers to pre-install on every test device.
    device_count:
        Number of Samsung J7 Duo test devices at the vantage point.
    scheduling_policy:
        Dispatch queue ordering policy (``"fifo"``, ``"priority"``,
        ``"fair-share"`` or ``"deadline"``); see
        :mod:`repro.accessserver.policies`.
    reservation_admission:
        ``"ignore"`` (default) or ``"defer"`` — whether dispatch plans
        around *upcoming* session reservations; see
        :class:`~repro.accessserver.scheduler.JobScheduler`.
    state_dir:
        When set, the access server journals every state mutation under
        this directory and, if the directory already holds a previous run's
        snapshot/journal, recovers that state after the vantage point is
        re-registered — queued jobs, reservations and credit balances
        survive a restart (see :mod:`repro.accessserver.persistence`).
    persistence:
        Set to ``False`` to ignore ``state_dir`` entirely (no recovery, no
        journaling) — the CLI's ``--no-persistence``.
    analytics:
        Attach the live operations-analytics tap (on by default — the fold
        is O(1) per event).  When persistence recovers prior state, the
        analytics engine is seeded by a cold replay of that journal first,
        so reports span restarts.
    """
    if device_count < 1:
        raise ValueError("device_count must be at least 1")
    context = SimulationContext(seed=seed)
    access_server = AccessServer(
        context,
        scheduling_policy=scheduling_policy,
        reservation_admission=reservation_admission,
    )
    admin_token = "admin-token"
    experimenter_token = "experimenter-token"
    admin = access_server.accounts.bootstrap_admin(token=admin_token)
    experimenter = access_server.users.add_user(
        "experimenter", Role.EXPERIMENTER, token=experimenter_token
    )
    platform = BatteryLabPlatform(
        context=context,
        access_server=access_server,
        admin=admin,
        experimenter=experimenter,
        account_tokens={
            admin.username: admin_token,
            experimenter.username: experimenter_token,
        },
    )
    add_vantage_point(
        platform,
        node_identifier=node_identifier,
        institution="Imperial College London",
        device_profiles=[SAMSUNG_J7_DUO] * device_count,
        browsers=browsers,
    )
    assert all(name in BROWSER_PROFILES for name in (b.lower() for b in browsers)), (
        "unknown browser requested"
    )
    # Persistence attaches after the vantage point joins so recovery can
    # re-queue jobs onto devices that are registered and executable.
    if state_dir is not None and persistence:
        access_server.enable_persistence(state_dir)
    # Analytics attaches last so a recovered journal seeds the engine
    # before the live fold starts taking new records.
    if analytics:
        access_server.enable_analytics()
    return platform
