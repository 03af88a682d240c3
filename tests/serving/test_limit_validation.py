"""Validation of ``limit`` on ``/execute`` and ``/execute_many``.

``limit`` is validated before the session is touched: only an absent
or null value, or a positive int that is not a bool, is accepted.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.api import EngineConfig
from repro.serving.server import serve


def _exchange(running, request_bytes):
    """One request on a fresh connection; the response, once closed."""
    with socket.create_connection((running.host, running.port), timeout=30) as sock:
        sock.sendall(request_bytes)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _request(running, path, body):
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {running.host}:{running.port}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("ascii")
    return head + body


def _post_json(running, path, payload):
    """POST ``payload``; returns (status, decoded body)."""
    response = _exchange(running, _request(running, path, json.dumps(payload).encode()))
    head, _, body = response.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n", 1)[0].split()[1])
    return status, json.loads(body)


@pytest.fixture
def session(workload):
    session = workload.open_session(config=EngineConfig(), sharded=False)
    yield session
    session.close()


class TestLimitValidation:
    @pytest.mark.parametrize(
        "limit", [True, False, "20", 0, -1, 2.0, [3]], ids=repr
    )
    @pytest.mark.parametrize("route", ["/execute", "/execute_many"])
    def test_invalid_limit_is_400_before_the_session_runs(
        self, session, workload, route, limit
    ):
        spec = workload.spec(method="in_edge").to_dict()
        body = (
            {**spec, "limit": limit}
            if route == "/execute"
            else {"specs": [spec], "limit": limit}
        )
        with serve(session, own_session=False) as running:
            status, payload = _post_json(running, route, body)
        assert status == 400
        assert payload["error"]["type"] == "QueryError"
        assert '"limit"' in payload["error"]["message"]
        # refused before any query ran
        assert session.stats_snapshot().queries_executed == 0

    @pytest.mark.parametrize("limit", [None, 1, 3])
    def test_valid_limit_pages_execute(self, session, workload, limit):
        spec = workload.spec(method="in_edge").to_dict()
        with serve(session, own_session=False) as running:
            status, full = _post_json(running, "/execute", spec)
            status_limited, limited = _post_json(
                running, "/execute", {**spec, "limit": limit}
            )
        assert status == status_limited == 200
        expected = full["entities"] if limit is None else full["entities"][:limit]
        assert limited["entities"] == expected

    def test_valid_limit_pages_execute_many(self, session, workload):
        spec = workload.spec(method="in_edge").to_dict()
        with serve(session, own_session=False) as running:
            status, body = _post_json(
                running, "/execute_many", {"specs": [spec, spec], "limit": 2}
            )
        assert status == 200
        assert [record["returned"] for record in body["results"]] == [2, 2]
