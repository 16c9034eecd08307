"""One federation shard: a full access-server deployment plus its lane.

A shard is an ordinary single-server BatteryLab platform — own simulation
context, own vantage points, own write-ahead journal, own telemetry — with
exactly two federation-specific twists applied at build time:

* :meth:`~repro.accessserver.server.AccessServer.configure_shard` switches
  the server onto its strided job-id lane *before* persistence attaches,
  so journal recovery claims ids into the lane allocator and every id the
  shard ever mints stays in its residue class;
* the shard's first vantage point is named after the shard
  (``<shard_id>-node1``), keeping hardware names unique across the fleet
  so the merged ``fleet.list`` has no colliding rows.

Because a shard *is* a stock platform, the federation router drives it
through an unmodified :class:`~repro.api.router.ApiRouter` — the same
wire ops, the same bytes, the same error taxonomy as a standalone server.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from repro.accessserver.server import batch_filled
from repro.api.router import ApiRouter
from repro.core.platform import BatteryLabPlatform, build_default_platform
from repro.federation.placement import ShardState

__all__ = ["FederationShard", "build_shard", "build_federation_shards"]


class FederationShard:
    """Handle pairing one shard's platform with its router and drain state."""

    def __init__(
        self,
        shard_id: str,
        index: int,
        lane_count: int,
        platform: BatteryLabPlatform,
    ) -> None:
        self.shard_id = shard_id
        self.index = index
        self.lane_count = lane_count
        self.platform = platform
        self.router = ApiRouter(platform.access_server)
        self.state = ShardState.ACTIVE

    @property
    def server(self):
        return self.platform.access_server

    def settle(self, max_rounds: int = 100) -> int:
        """Drain the shard's queue: run passes until one runs out of work.

        Returns how many jobs were executed.  A pass that did not fill its
        batch left nothing dispatchable — what is still queued waits for an
        agent, a reservation or a held device, and no further pass here
        would run it.  ``max_rounds`` bounds the loop against a
        pathological queue that refills itself.
        """
        executed = 0
        for _ in range(max_rounds):
            ran = self.platform.run_queue()
            executed += len(ran)
            if not batch_filled(ran):
                break
        return executed

    def sync(self) -> None:
        """Flush the shard's journal so a re-attach recovers everything."""
        persistence = self.server.persistence
        if persistence is not None:
            persistence.backend.sync()


def build_shard(
    shard_id: str,
    index: int,
    lane_count: int,
    state_dir: Optional[str] = None,
    seed: int = 7,
    device_count: int = 1,
    browsers: Sequence[str] = ("chrome",),
    scheduling_policy: str = "fifo",
    reservation_admission: str = "ignore",
    analytics: bool = True,
) -> FederationShard:
    """Build (or recover) one shard's complete platform.

    Assembly order matters and differs from the single-server helper:
    the shard lane is configured *before* persistence attaches, because
    recovery must claim journaled job ids into the lane allocator — a job
    minted after recovery may otherwise reuse a recovered id.  Analytics
    still attaches last so a recovered journal seeds the engine before
    the live tap folds new events.
    """
    if not (0 <= index < lane_count):
        raise ValueError(
            f"shard index {index!r} outside lane space of {lane_count!r}"
        )
    platform = build_default_platform(
        # De-correlate the shards' random streams; same seed in, same
        # federation out — rebuilds are reproducible.
        seed=seed + index,
        node_identifier=f"{shard_id}-node1",
        browsers=browsers,
        device_count=device_count,
        scheduling_policy=scheduling_policy,
        reservation_admission=reservation_admission,
        state_dir=None,
        persistence=False,
        analytics=False,
    )
    server = platform.access_server
    server.configure_shard(shard_id, shard_index=index, shard_count=lane_count)
    if state_dir is not None:
        server.enable_persistence(state_dir)
    if analytics:
        server.enable_analytics()
    return FederationShard(shard_id, index, lane_count, platform)


def build_federation_shards(
    shard_count: int,
    state_root: Optional[str] = None,
    seed: int = 7,
    device_count: int = 1,
    browsers: Sequence[str] = ("chrome",),
    scheduling_policy: str = "fifo",
    reservation_admission: str = "ignore",
    analytics: bool = True,
) -> List[FederationShard]:
    """Build ``shard_count`` shards named ``shard-0 .. shard-N-1``.

    With ``state_root`` each shard journals under its own subdirectory
    (``<state_root>/shard-K``), which is also where ``shard.add`` recovers
    it from after a rolling restart.
    """
    if shard_count < 1:
        raise ValueError("a federation needs at least one shard")
    shards = []
    for index in range(shard_count):
        shard_id = f"shard-{index}"
        state_dir = None
        if state_root is not None:
            state_dir = os.path.join(state_root, shard_id)
        shards.append(
            build_shard(
                shard_id,
                index,
                shard_count,
                state_dir=state_dir,
                seed=seed,
                device_count=device_count,
                browsers=browsers,
                scheduling_policy=scheduling_policy,
                reservation_admission=reservation_admission,
                analytics=analytics,
            )
        )
    return shards
