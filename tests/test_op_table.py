"""The one operation table: coherence, binding, and the gates both routers share.

``repro.api.ops.OPS`` is the only place an operation is declared; the
standalone :class:`ApiRouter`, the :class:`FederationRouter` (of one lane
and of several) and the client all derive from it.  These tests pin that
the three cannot drift again: every row is served by who should serve it,
a row without a handler stops construction, and a request that fails a
gate fails it identically whichever router it met.
"""

import pytest

from repro.api import OPS, ApiRouter, BatteryLabClient, InProcessTransport, Op
from repro.api import ops as ops_module
from repro.api.ops import OpRouter
from repro.api.schemas import API_VERSION, API_VERSION_V2
from repro.federation import FederationRouter, build_federation_shards, build_shard

ADMIN = {"username": "admin", "token": "admin-token"}

V1_OPS = {
    "job.submit",
    "job.status",
    "job.list",
    "job.cancel",
    "job.results",
    "session.reserve",
    "credits.balance",
    "fleet.list",
    "server.status",
}

#: The ``mode`` label each op was counted under by the hand-written
#: federation dispatch ladder this table replaced.
FEDERATION_MODES = {
    "auth.login": "broadcast",
    "auth.logout": "broadcast",
    "user.create": "broadcast",
    "fleet.list": "scatter",
    "server.status": "scatter",
    "job.list": "scatter",
    "approvals.list": "scatter",
    "analytics.report": "scatter",
    "analytics.timeseries": "scatter",
    "obs.metrics": "scatter",
    "obs.trace": "scatter",
    "job.status": "routed",
    "job.cancel": "routed",
    "job.results": "routed",
    "job.approve": "routed",
    "job.reject": "routed",
    "job.submit": "routed",
    "session.reserve": "routed",
    "vantage-point.register": "routed",
    "credits.balance": "routed",
    "credits.grant": "routed",
    "agent.register": "routed",
    "agent.poll": "routed",
    "agent.claim": "routed",
    "agent.heartbeat": "routed",
    "agent.report": "routed",
    "subscription.cancel": "routed",
    "job.watch": "stream",
    "events.subscribe": "stream",
    "shard.list": "admin",
    "shard.add": "admin",
    "shard.drain": "admin",
    "shard.remove": "admin",
}


#: What the table lookup and the version gate answer with.
GATE_CODES = {"request.unknown_operation", "request.version_unsupported"}


def standalone_router():
    """An :class:`ApiRouter` on a platform built exactly like a shard's."""
    return build_shard("shard-0", 0, 1).router


def federation(lanes):
    return FederationRouter(build_federation_shards(lanes))


def call(router, op, version=API_VERSION_V2, payload=None, push=None):
    return router.handle(
        {
            "op": op,
            "version": version,
            "request_id": 7,
            "auth": ADMIN,
            "payload": payload or {},
        },
        push=push,
    )


def outcome(response):
    """``"ok"`` or the error code."""
    return "ok" if response["ok"] else response["error"]["code"]


def request_counts(router):
    """``{(op, mode): value}`` of the router's ``federation_requests_total``."""
    return {
        (row["labels"]["op"], row["labels"]["mode"]): row["value"]
        for row in router.obs.registry.snapshot()["counters"]
        if row["name"] == "federation_requests_total"
    }


@pytest.fixture(scope="module")
def routers():
    """One of each router; gate failures leave no state behind, so shared."""
    return {
        "standalone": standalone_router(),
        "federation-of-1": federation(1),
        "federation-of-2": federation(2),
    }


class TestTableCoherence:
    def test_rows_are_unique_and_complete(self):
        assert len(ops_module._TABLE) == len(OPS) == 33
        assert all(name == op.name for name, op in OPS.items())
        assert all(isinstance(op, Op) for op in OPS.values())

    def test_the_v1_surface_is_the_frozen_nine(self):
        assert {op.name for op in OPS.values() if op.min_version == API_VERSION} == V1_OPS
        assert {op.min_version for op in OPS.values()} == {API_VERSION, API_VERSION_V2}

    def test_modes_are_the_labels_the_dispatch_ladder_counted(self):
        assert {op.name: op.mode for op in OPS.values()} == FEDERATION_MODES
        # A scatter row names its fold, or its route folds for itself.
        from repro.federation import merge

        for op in OPS.values():
            if op.merge is not None:
                assert op.mode == "scatter" and callable(getattr(merge, op.merge))

    def test_standalone_router_serves_the_table_minus_admin(self, routers):
        expected = {op.name: op.permission for op in OPS.values() if op.mode != "admin"}
        assert routers["standalone"].operations(API_VERSION_V2) == expected
        assert set(routers["standalone"].operations()) == V1_OPS

    @pytest.mark.parametrize("name", ["federation-of-1", "federation-of-2"])
    def test_federation_router_serves_the_whole_table(self, routers, name):
        expected = {op.name: op.permission for op in OPS.values()}
        assert routers[name].operations(API_VERSION_V2) == expected
        assert set(routers[name].operations()) == V1_OPS

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_flags_are_answered_from_the_row(self, routers, name):
        op = OPS[name]
        for label, router in routers.items():
            served = op.mode != "admin" or label != "standalone"
            assert router.is_read_only(name) == (served and op.read_only)
            assert router.is_blocking(name) == (served and op.blocking)

    @pytest.mark.parametrize("router_class", [ApiRouter, FederationRouter])
    def test_neither_router_restates_what_the_table_answers(self, router_class):
        assert issubclass(router_class, OpRouter)
        for shared in ("is_read_only", "is_blocking", "operations", "handle_deferred"):
            assert shared not in vars(router_class), shared


class TestBinding:
    """A row with no handler fails construction, naming the operation."""

    @pytest.mark.parametrize("mode", ["broadcast", "stream", "admin", "scatter"])
    def test_federation_router_refuses_an_unrouted_row(self, monkeypatch, mode):
        monkeypatch.setitem(OPS, "lab.reboot", Op("lab.reboot", None, mode))
        with pytest.raises(NotImplementedError, match="'lab.reboot'"):
            federation(1)

    def test_api_router_refuses_an_unhandled_row(self, monkeypatch):
        server = build_shard("shard-0", 0, 1).server
        monkeypatch.setitem(OPS, "lab.reboot", Op("lab.reboot", None, "routed"))
        with pytest.raises(NotImplementedError, match="'lab.reboot'"):
            ApiRouter(server)

    def test_a_row_plus_its_handlers_is_a_served_operation(self, monkeypatch):
        """Adding an operation is one row and a method per router."""
        row = Op("lab.ping", None, "routed", read_only=True, authenticate=False)
        monkeypatch.setitem(OPS, row.name, row)
        monkeypatch.setattr(
            ApiRouter, "_op_lab_ping", lambda self, ctx, payload: {"pong": True},
            raising=False,
        )
        for router in (standalone_router(), federation(1), federation(2)):
            assert call(router, "lab.ping")["payload"] == {"pong": True}
            assert router.is_read_only("lab.ping")


class TestGateDifferential:
    """Same envelope, same verdict — standalone, one lane, or two."""

    def test_unknown_operation(self, routers):
        for label, router in routers.items():
            response = call(router, "no.such.op")
            assert outcome(response) == "request.unknown_operation", label
            listed = response["error"]["details"]["operations"]
            assert listed == sorted(router.operations(API_VERSION_V2)), label

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_unsupported_version(self, routers, name):
        responses = [call(router, name, version="9.9") for router in routers.values()]
        assert {outcome(r) for r in responses} == {"request.version_unsupported"}
        assert all(r == responses[0] for r in responses)

    @pytest.mark.parametrize("version", [API_VERSION, API_VERSION_V2])
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_every_row_meets_the_same_gates(self, routers, name, version):
        op = OPS[name]
        if op.min_version > version:
            expected = "request.version_unsupported"
        elif op.streaming:
            expected = "request.invalid"  # no ``push`` was offered
        else:
            expected = None  # past the gates; the handler decides
        responses = {label: call(r, name, version) for label, r in routers.items()}
        if op.mode == "admin":
            # Not an operation of a standalone server at all.
            standalone = responses.pop("standalone")
            assert outcome(standalone) == "request.unknown_operation"
        verdicts = {label: outcome(r) for label, r in responses.items()}
        assert len(set(verdicts.values())) == 1, verdicts
        if expected is not None:
            # A gate answered: same code, message and details, byte for byte.
            first = next(iter(responses.values()))
            assert outcome(first) == expected
            assert all(r == first for r in responses.values())
            if op.min_version > version:
                assert first["error"]["details"] == {
                    "operation": name,
                    "min_version": op.min_version,
                }
            else:
                assert "cannot carry server pushes" in first["error"]["message"]
        else:
            assert GATE_CODES.isdisjoint(verdicts.values())

    @pytest.mark.parametrize("name", sorted(n for n, op in OPS.items() if op.streaming))
    def test_a_streaming_row_passes_its_gate_with_a_push(self, routers, name):
        verdicts = {
            label: call(router, name, push=lambda frame: None)
            for label, router in routers.items()
        }
        for label, response in verdicts.items():
            message = "" if response["ok"] else response["error"]["message"]
            assert "cannot carry server pushes" not in message, label
        assert len({outcome(r) for r in verdicts.values()}) == 1


class TestUnknownOpsAreOneSeries:
    """Drift 1: telemetry is labelled from the table, not from the wire."""

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_bogus_op_strings_add_one_series(self, lanes):
        router = federation(lanes)
        call(router, "fleet.list")
        before = request_counts(router)
        for index in range(50):
            assert outcome(call(router, f"bogus.{index}")) == "request.unknown_operation"
        added = {
            key: value
            for key, value in request_counts(router).items()
            if key not in before
        }
        assert added == {("<unknown>", "rejected"): 50}

    def test_known_ops_keep_their_mode_labels(self):
        one, two = federation(1), federation(2)
        for router in (one, two):
            for name in ("fleet.list", "job.status", "shard.list", "auth.login"):
                call(router, name)
        assert request_counts(one) == {
            ("fleet.list", "passthrough"): 1,
            ("job.status", "passthrough"): 1,
            ("shard.list", "admin"): 1,
            ("auth.login", "passthrough"): 1,
        }
        assert request_counts(two) == {
            (name, OPS[name].mode): 1
            for name in ("fleet.list", "job.status", "shard.list", "auth.login")
        }

    def test_one_lane_lists_the_shard_ops_it_serves(self, routers):
        listed = {
            label: call(router, "no.such.op")["error"]["details"]["operations"]
            for label, router in routers.items()
        }
        assert listed["federation-of-1"] == listed["federation-of-2"] == sorted(OPS)
        assert "shard.list" in listed["federation-of-1"]
        assert outcome(call(routers["federation-of-1"], "shard.list")) == "ok"
        # A standalone server's bytes for the same error are what they were.
        assert [name for name in listed["standalone"] if name.startswith("shard.")] == []
        assert len(listed["standalone"]) == 29


class TestV2OnlyOpsRefuseV1Envelopes:
    """Drift 2: the federation reads ``min_version`` for what it serves itself."""

    def test_v1_cannot_cancel_a_federated_subscription(self):
        router = federation(2)
        frames = []
        ack = call(router, "events.subscribe", payload={"topic_prefix": "dispatch."},
                   push=frames.append)
        fed_id = ack["payload"]["subscription_id"]
        refused = call(router, "subscription.cancel", version=API_VERSION,
                       payload={"subscription_id": fed_id})
        assert outcome(refused) == "request.version_unsupported"
        assert refused["error"]["details"] == {
            "operation": "subscription.cancel",
            "min_version": API_VERSION_V2,
        }
        assert fed_id in router.active_subscriptions()
        cancelled = call(router, "subscription.cancel", payload={"subscription_id": fed_id})
        assert cancelled["payload"] == {"cancelled": True}
        assert router.active_subscriptions() == []

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize(
        "name, payload",
        [("job.watch", {"job_id": 1}), ("events.subscribe", {"topic_prefix": "dispatch."})],
    )
    def test_a_v1_stream_is_refused_before_anything_is_opened(self, lanes, name, payload):
        router = federation(lanes)
        legs = []
        for shard in router.shards:
            real = shard.router.handle
            shard.router.handle = lambda *a, _real=real, **k: legs.append(a) or _real(*a, **k)
        response = call(router, name, version=API_VERSION, payload=payload,
                        push=lambda frame: None)
        assert outcome(response) == "request.version_unsupported"
        assert response["error"]["details"] == {
            "operation": name,
            "min_version": API_VERSION_V2,
        }
        assert legs == []  # no shard was asked, so nothing was opened to tear down
        assert router.active_subscriptions() == []
        assert router._next_subscription_id == 1

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("name", sorted(n for n, op in OPS.items() if op.mode == "admin"))
    def test_shard_ops_refuse_v1(self, lanes, name):
        response = call(federation(lanes), name, version=API_VERSION)
        assert outcome(response) == "request.version_unsupported"
        assert response["error"]["details"] == {
            "operation": name,
            "min_version": API_VERSION_V2,
        }


class TestClientTakesTheVersionFromTheRow:
    """The third declaration: no call site names a version its op implies."""

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_a_v2_only_op_claims_v2_and_a_v1_op_the_clients_own(self, name):
        transport = InProcessTransport(standalone_router())
        for speaks in ("0.9", API_VERSION, API_VERSION_V2):
            client = BatteryLabClient(transport, "admin", "admin-token", version=speaks)
            claimed = client._build_request(name, {}, None).version
            v2_only = OPS[name].min_version == API_VERSION_V2
            assert claimed == (API_VERSION_V2 if v2_only else speaks)

    def test_a_session_or_an_explicit_version_still_decides(self):
        client = BatteryLabClient(
            InProcessTransport(standalone_router()), "admin", "admin-token"
        )
        assert client._build_request("fleet.list", {}, None).version == API_VERSION
        assert client._build_request("fleet.list", {}, API_VERSION_V2).version == API_VERSION_V2
        assert client._build_request("made.up", {}, None).version == API_VERSION
        client.login()
        assert client._build_request("fleet.list", {}, None).version == API_VERSION_V2
