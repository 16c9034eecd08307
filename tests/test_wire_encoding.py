"""A handler returns wire: each response is encoded exactly once.

Every handler of :class:`ApiRouter`, and every fold of the
:class:`FederationRouter`, returns its payload as plain JSON — dicts,
lists, strings, numbers, booleans and ``None`` — and the success envelope
(``schemas.response_wire``) wraps it by reference instead of walking it
again.  ``WireModel.to_wire`` copies primitive fields as they are and walks
only the free-form ``object`` / ``dict`` ones.  These tests pin what that
rests on:

* every model's compiled encoder answers what the generic walk answers,
  whatever kind of field it meets;
* every success payload either router returns is plain JSON already;
* a caller that mutates a payload it was handed does not change the next
  answer.
"""

import dataclasses
import json
import typing

import pytest

from repro.api import OPS
from repro.api.client import BatteryLabClient, InProcessTransport
from repro.api.schemas import (
    API_VERSION_V2,
    ApiResponse,
    JobRef,
    WireModel,
    _compile_encoder,
    _field_default,
    _strip_optional,
    response_wire,
)
from repro.federation import FederationRouter, build_federation_shards, build_shard

_PRIMITIVES = (str, int, float, bool)


def _models(cls=WireModel):
    for sub in cls.__subclasses__():
        yield sub
        yield from _models(sub)


MODELS = sorted(set(_models()), key=lambda cls: cls.__name__)


def _reference_wire(value):
    """The generic walk ``to_wire`` used before fields had encoders:
    every field value recursed into by type, nothing copied on trust."""
    if isinstance(value, WireModel):
        wire = {}
        for name, elide_default, _ in value._codec().to_wire_plan:
            item = getattr(value, name)
            if elide_default is not dataclasses.MISSING and item == elide_default:
                continue
            wire[name] = _reference_wire(item)
        return wire
    if isinstance(value, (list, tuple)):
        return [_reference_wire(item) for item in value]
    if isinstance(value, dict):
        return {key: _reference_wire(item) for key, item in value.items()}
    return value


def _sample(hint):
    """A value for ``hint``: a tuple wherever a list may be, and a tuple
    (and a model) inside every free-form field."""
    hint = _strip_optional(hint)
    if hint is bool:
        return True
    if hint is int:
        return 3
    if hint is float:
        return 2.5
    if hint is str:
        return "s"
    if typing.get_origin(hint) in (list, typing.List):
        (item_hint,) = typing.get_args(hint)
        return (_sample(item_hint), _sample(item_hint))
    if isinstance(hint, type) and issubclass(hint, WireModel):
        return _instance(hint)
    if hint in (object, dict, typing.Dict):
        return {"pair": (1, "two"), "deep": {"ids": (3, 4)}, "ref": JobRef(job_id=5)}
    raise AssertionError(f"no sample for wire annotation {hint!r}: teach the encoder")


def _instance(cls, fill="set"):
    """Every field set away from its default; with ``fill="elided"`` every
    ``_ELIDE_WHEN_DEFAULT`` field left at it, and with ``fill="none"``
    every ``Optional`` field ``None``."""
    hints = cls._hints()
    kwargs = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if fill == "elided" and f.name in cls._ELIDE_WHEN_DEFAULT:
            kwargs[f.name] = _field_default(f)
        elif fill == "none" and _strip_optional(hint) is not hint:
            kwargs[f.name] = None
        else:
            kwargs[f.name] = _sample(hint)
    return cls(**kwargs)


def assert_plain_json(value, path="payload"):
    """Only JSON's own types, all the way down: no tuple, model or enum."""
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str, f"{path}: key {key!r}"
            assert_plain_json(item, f"{path}.{key}")
    elif isinstance(value, list) and type(value) is list:
        for index, item in enumerate(value):
            assert_plain_json(item, f"{path}[{index}]")
    else:
        assert value is None or type(value) in _PRIMITIVES, (
            f"{path} is a {type(value).__name__}: {value!r}"
        )


class TestCompiledEncoders:
    def test_every_model_is_covered(self):
        names = {cls.__name__ for cls in MODELS}
        assert {"JobView", "ApiRequest", "ApiResponse", "AgentReportRequest"} <= names
        assert len(MODELS) > 50

    @pytest.mark.parametrize("fill", ["set", "elided", "none"])
    @pytest.mark.parametrize("cls", MODELS, ids=lambda cls: cls.__name__)
    def test_compiled_equals_the_generic_walk(self, cls, fill):
        model = _instance(cls, fill)
        wire = model.to_wire()
        assert wire == _reference_wire(model)
        assert_plain_json(wire)
        if fill == "elided":
            assert not set(cls._ELIDE_WHEN_DEFAULT) & set(wire)

    @pytest.mark.parametrize("cls", MODELS, ids=lambda cls: cls.__name__)
    def test_only_primitives_are_copied_as_they_are(self, cls):
        hints = cls._hints()
        for name, _, encode in cls._codec().to_wire_plan:
            primitive = _strip_optional(hints[name]) in _PRIMITIVES
            assert (encode is None) == primitive, f"{cls.__name__}.{name}"

    @pytest.mark.parametrize(
        "hint",
        [typing.Dict[str, int], typing.Tuple[int, int], set, typing.Any, list],
        ids=str,
    )
    def test_an_annotation_no_rule_names_is_walked(self, hint):
        assert _compile_encoder(hint) is not None


class TestEnvelope:
    def test_success_envelope_is_the_dto_wire_form(self):
        payload = {"jobs": [{"job_id": 1}]}
        built = response_wire("2.0", 9, payload)
        assert built == ApiResponse(
            ok=True, version="2.0", request_id=9, payload=payload
        ).to_wire()
        assert list(built) == ["ok", "version", "request_id", "payload", "error"]
        assert built["payload"] is payload  # wrapped, not walked

    def test_error_envelope_walks_the_details(self):
        error = {"code": "request.invalid", "message": "m", "details": {"f": (1, 2)}}
        built = response_wire("1.0", 0, error=error)
        assert built == ApiResponse(ok=False, request_id=0, error=error).to_wire()
        assert built["error"]["details"] == {"f": [1, 2]}
        assert list(built) == ["ok", "version", "request_id", "payload", "error"]


class _Recording:
    """A router seen through a recorder: every envelope its ``handle``
    returned, before any transport copied it."""

    def __init__(self, router):
        self.router = router
        self.responses = []

    def handle(self, request, **kwargs):
        response = self.router.handle(request, **kwargs)
        self.responses.append((request.get("op"), response))
        return response

    def __getattr__(self, name):
        return getattr(self.router, name)


def _admin_request(op, payload):
    return {
        "op": op,
        "version": API_VERSION_V2,
        "request_id": 1,
        "auth": {"username": "admin", "token": "admin-token"},
        "payload": payload,
    }


def _drive(recording, shards, federated):
    """Reach every op the fixtures can: the SDK over ``InProcessTransport``,
    and the admin rows by hand."""
    for shard in shards:
        shard.server.accounts.enable_credit_system(initial_grant_device_hours=10.0)
    admin = BatteryLabClient(InProcessTransport(recording), "admin", "admin-token")
    admin.login()
    fleet = admin.fleet()
    vp = fleet.vantage_points[0]
    done = admin.submit_job("done", "noop", vantage_point=vp.name)
    cancelled = admin.submit_job("cancel-me", "noop", vantage_point=vp.name)
    admin.job_status(done.job_id)
    admin.cancel_job(cancelled.job_id)
    watch = admin.watch_job(done.job_id)
    events = admin.events("dispatch.")
    for shard in shards:
        shard.server.drain()
    list(watch)
    admin.cancel_subscription(events.subscription_id)
    admin.list_jobs()
    admin.job_page(offset=1, limit=1)
    admin.job_results(done.job_id)
    admin.reserve_session(vp.name, vp.devices[0].serial, 10_000.0, 60.0)
    admin.grant_credits("experimenter", 1.5, note="contract")
    admin.credits_balance("experimenter")
    admin.server_status()
    admin.server_status(version=API_VERSION_V2)
    admin.register_vantage_point("contract-vp", "Contract University", device_count=2)
    approve = admin.submit_job("pipe-a", "noop", is_pipeline_change=True)
    reject = admin.submit_job("pipe-r", "noop", is_pipeline_change=True)
    admin.approvals()
    admin.approve_job(approve.job_id)
    admin.reject_job(reject.job_id, reason="contract")
    admin.create_user("carol", "experimenter", "carol-token")
    admin.analytics_report()
    admin.analytics_timeseries(60.0)
    admin.obs_metrics(prefix="api_")
    pulled = admin.submit_job("pulled", "noop", execution="agent", connector="fake")
    admin.agent_register("edge-1", connectors=["fake"], tags={"rack": "a"})
    admin.agent_subscribe("edge-1")
    admin.agent_poll("edge-1")
    lease = admin.agent_claim("edge-1", pulled.job_id)
    admin.agent_heartbeat(lease.lease_id, "edge-1")
    admin.agent_report(
        lease.lease_id, "edge-1", "completed", result={"rows": [[1, 2], {"k": None}]}
    )
    admin.obs_trace(job_id=done.job_id)
    if federated:
        recording.handle(_admin_request("shard.list", {}))
        recording.handle(_admin_request("shard.drain", {"shard_id": "shard-1"}))
        recording.handle(_admin_request("shard.remove", {"shard_id": "shard-1"}))
    admin.logout()


#: Rows the fixtures cannot reach: a re-attach needs a shard factory.
_UNREACHED = {"shard.add"}


def _recorded(label):
    """A recorded standalone router, or a 2-shard federation, and its shards."""
    if label == "standalone":
        shard = build_shard("shard-0", 0, 1)
        return _Recording(shard.router), [shard]
    shards = build_federation_shards(2)
    return _Recording(FederationRouter(shards)), shards


@pytest.fixture(params=["standalone", "federation-of-2"])
def driven(request):
    recording, shards = _recorded(request.param)
    _drive(recording, shards, federated=request.param != "standalone")
    return request.param, recording


class TestEverySuccessPayloadIsWire:
    def test_every_reachable_op_answered_ok(self, driven):
        label, recording = driven
        expected = {
            name
            for name, op in OPS.items()
            if name not in _UNREACHED and (label != "standalone" or op.mode != "admin")
        }
        reached = {op for op, response in recording.responses if response["ok"]}
        failed = {
            op: response["error"]
            for op, response in recording.responses
            if not response["ok"]
        }
        assert not failed, failed
        assert reached == expected, sorted(expected ^ reached)

    def test_payloads_are_plain_json(self, driven):
        _, recording = driven
        for op, response in recording.responses:
            assert json.loads(json.dumps(response)) == response, op
            assert_plain_json(response["payload"], op)


def _vandalise(value):
    """Mutate a wire value in place, all the way down."""
    if isinstance(value, dict):
        for key in list(value):
            _vandalise(value[key])
            value[key] = "vandalised"
        value["vandalised"] = True
    elif isinstance(value, list):
        for item in value:
            _vandalise(item)
        value.append("vandalised")


@pytest.mark.parametrize("label", ["standalone", "federation-of-2"])
@pytest.mark.parametrize(
    "read",
    [
        lambda client: client.list_jobs(),
        lambda client: client.fleet(),
        lambda client: client.analytics_report(),
        lambda client: client.server_status(version=API_VERSION_V2),
    ],
    ids=["job.list", "fleet.list", "analytics.report", "server.status"],
)
def test_a_mutated_payload_is_not_the_next_answer(label, read):
    recording, shards = _recorded(label)
    client = BatteryLabClient(InProcessTransport(recording), "admin", "admin-token")
    for index, shard in enumerate(shards):
        client.submit_job(f"j-{index}", "noop", vantage_point=f"shard-{index}-node1")
        shard.server.drain()
    client.submit_job("queued", "noop", is_pipeline_change=True)
    first = read(client)
    _vandalise(recording.responses[-1][1]["payload"])
    assert read(client) == first
