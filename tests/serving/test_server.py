"""The HTTP front door: endpoints, error mapping, lifecycle."""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.api import EngineConfig
from repro.engine.sharded import ShardFragment, merge_fragments
from repro.errors import (
    EmptyAnswerError,
    OverloadedError,
    QueryError,
    RankingError,
    SchemaError,
    StorageError,
    ValidationError,
)
from repro.serving import rpc
from repro.serving.engine import ProcessShardedEngine
from repro.serving.server import _status_for, serve
from repro.workloads import mediated_layers


def _get(url, path):
    with urllib.request.urlopen(url + path, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post(url, path, body):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post_error(url, path, body):
    try:
        _post(url, path, body if isinstance(body, bytes) else body)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
    raise AssertionError("expected an HTTP error")


@pytest.fixture(params=["thread", "process"])
def server(request, workload):
    config = EngineConfig(
        shards=2, shard_mode=request.param, rpc_timeout=5.0, worker_restarts=2
    )
    session = workload.open_session(config=config)
    with serve(session) as running:
        yield running


class TestEndpoints:
    def test_health(self, server):
        status, body = _get(server.url, "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["sharded"] is True
        if body["shard_mode"] == "process":
            assert body["workers_alive"] == 2

    def test_execute(self, server, workload):
        spec = workload.spec(method="in_edge")
        status, body = _post(server.url, "/execute", spec.to_dict())
        assert status == 200
        assert body["total"] == body["returned"] == len(body["entities"])
        first = body["entities"][0]
        assert first["rank"] == 1
        assert set(first) == {
            "rank", "rank_interval", "entity_set", "key", "label", "score"
        }

    def test_execute_with_limit(self, server, workload):
        spec = workload.spec(method="in_edge")
        status, body = _post(
            server.url, "/execute", {**spec.to_dict(), "limit": 2}
        )
        assert status == 200
        assert body["returned"] == len(body["entities"]) == 2
        assert body["total"] >= 2

    def test_execute_many_mixes_results_and_errors(self, server, workload):
        good = workload.spec(method="in_edge").to_dict()
        empty = {**good, "value": "no-such-root"}
        status, body = _post(
            server.url, "/execute_many", {"specs": [good, empty, good]}
        )
        assert status == 200
        assert body["count"] == 3
        ok, bad, ok2 = body["results"]
        assert ok["total"] > 0 and ok == ok2
        assert bad["error"]["type"] == "EmptyAnswerError"

    def test_explain(self, server, workload):
        spec = workload.spec(method="in_edge")
        status, body = _post(server.url, "/explain", spec.to_dict())
        assert status == 200
        assert body["answers"] > 0
        assert body["spec"]["method"] == "in_edge"

    def test_stats_and_shard_stats(self, server, workload):
        _post(server.url, "/execute", workload.spec().to_dict())
        status, stats = _get(server.url, "/stats")
        assert status == 200
        assert stats["engine"]["queries_executed"] >= 1
        status, shard_stats = _get(server.url, "/shard_stats")
        assert status == 200
        assert len(shard_stats["shards"]) == 2
        if "workers" in shard_stats:  # process mode only
            assert [w["shard"] for w in shard_stats["workers"]] == [0, 1]
            assert all(w["alive"] for w in shard_stats["workers"])


class TestErrorMapping:
    def test_empty_answer_is_400_with_kind(self, server, workload):
        spec = {**workload.spec().to_dict(), "value": "no-such-root"}
        status, body = _post_error(server.url, "/execute", spec)
        assert status == 400
        assert body["error"]["type"] == "EmptyAnswerError"
        assert body["error"]["kind"] in ("no-seeds", "dangling-seeds", "no-answers")

    def test_invalid_spec_is_400(self, server):
        status, body = _post_error(server.url, "/execute", {"nonsense": True})
        assert status == 400
        assert body["error"]["type"] in ("QueryError", "ValidationError")

    def test_wrong_typed_options_are_400(self, server, workload):
        """Options arrive in request bodies: a wrong-typed one is the
        client's error, not a 500 or a silent one-trial Monte Carlo."""
        for options in ({"tolerance": "x"}, {"trials": True}):
            spec = {**workload.spec().to_dict(), "options": options}
            status, body = _post_error(server.url, "/execute", spec)
            assert status == 400
            assert body["error"]["type"] == "RankingError"

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/execute", data=b"%% not json %%",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, server):
        status, body = _post_error(server.url, "/no_such_route", {})
        assert status == 404
        try:
            _get(server.url, "/no_such_route")
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404


def _raised(call):
    """The library error ``call()`` raises."""
    with pytest.raises(Exception) as caught:
        call()
    return caught.value


class _DeadWorker:
    """A worker handle whose every respawn and call breaks the transport."""

    shard = 1

    def _broken(self, *args, **kwargs):
        raise rpc.RpcTransportError("connection closed by peer")

    ensure_alive = restart = call = _broken


def _partial_failure():
    empty = ShardFragment(0, empty=EmptyAnswerError("empty", kind="no-seeds"))
    return merge_fragments(
        "in_edge", [0, 1], [("ok", empty), ("error", StorageError("disk vanished"))]
    )


def _restarts_exhausted():
    supervisor = SimpleNamespace(worker_restarts=1, rpc_timeout=1.0)
    return ProcessShardedEngine._call_supervised(
        supervisor, _DeadWorker(), "score_fragment", {}
    )


def _no_seeds_naming_a_shard_failure():
    """An unsharded no-seeds error whose client-chosen value reads like
    a shard failure: still the query's fault."""
    workload = mediated_layers(layers=2, width=4, fan_out=2, rng=7)
    try:
        with workload.open_session() as session:
            spec = workload.spec(method="in_edge").to_dict()
            session.execute({**spec, "value": "failed during scatter/gather"})
    finally:
        workload.close()


#: (id, the error as its source raises it, expected HTTP status)
STATUS_CASES = [
    ("shed", lambda: OverloadedError("session overloaded"), 503),
    ("transport failure", lambda: rpc.RpcTransportError("EOF"), 502),
    ("malformed fragment",
     lambda: _raised(lambda: rpc.decode_fragment(1, {"status": "ok", "owned": 7})), 502),
    ("partial failure", lambda: _raised(_partial_failure), 502),
    ("restarts exhausted", lambda: _raised(_restarts_exhausted), 502),
    ("no seeds, value naming a shard failure",
     lambda: _raised(_no_seeds_naming_a_shard_failure), 400),
    ("empty answer", lambda: EmptyAnswerError("no answers"), 400),
    ("query error", lambda: QueryError("unknown entity set 'E9'"), 400),
    ("worker application error", lambda: rpc.RpcRemoteError("bad options"), 400),
    ("ranking error", lambda: RankingError("did not converge"), 400),
    ("storage error", lambda: StorageError("disk vanished"), 400),
    ("schema error", lambda: SchemaError("no sink entity sets"), 400),
    ("validation error", lambda: ValidationError("p outside [0, 1]"), 400),
]


@pytest.mark.parametrize(
    "make_error, status",
    [case[1:] for case in STATUS_CASES],
    ids=[case[0] for case in STATUS_CASES],
)
def test_status_is_decided_by_the_error_type(make_error, status):
    """503 for shed requests, 502 for a failed shard (broken transport,
    partial failure, exhausted restarts), 400 for every other library
    error, whatever its message says."""
    assert _status_for(make_error()) == status


class TestLifecycle:
    def test_close_shuts_session_and_is_idempotent(self, workload):
        config = EngineConfig(shards=2, shard_mode="process", rpc_timeout=5.0)
        session = workload.open_session(config=config)
        running = serve(session)
        url = running.url
        assert _get(url, "/health")[0] == 200
        running.close()
        running.close()  # idempotent
        assert session.closed
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/health", timeout=2)

    def test_health_reports_closed_session(self, workload):
        session = workload.open_session(config=EngineConfig(shards=2))
        with serve(session, own_session=False) as running:
            session.close()
            status, body = _get(running.url, "/health")
            assert status == 200
            assert body["status"] == "closed"
