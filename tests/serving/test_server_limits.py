"""The HTTP front door's protective limits: 413, 503, socket timeout.

The overload test drives the session's real admission gate — the test
occupies the only execution slot directly, so the shed is a
deterministic state, not a race against a slow request.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.api import EngineConfig
from repro.serving.server import _MAX_BODY, serve


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
        _post(url, path, body)
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())
    raise AssertionError("expected an HTTP error")


def _raw_exchange(host, port, request_bytes, timeout=10.0):
    """Send raw bytes, read until the server closes the connection."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        if request_bytes:
            sock.sendall(request_bytes)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


#: route -> (request body around one spec dict, answers in the reply)
_ADMITTED_ROUTES = {
    "/execute": (lambda spec: spec, lambda body: body["total"]),
    "/execute_many": (
        lambda spec: {"specs": [spec]},
        lambda body: body["results"][0]["total"],
    ),
    "/explain": (lambda spec: spec, lambda body: body["answers"]),
}


class TestOverload:
    @pytest.mark.parametrize("path", sorted(_ADMITTED_ROUTES))
    def test_full_queue_sheds_503_with_retry_after(self, workload, path):
        config = EngineConfig(
            max_concurrency=1, max_queue_depth=0, retry_after=2.5
        )
        session = workload.open_session(config=config, sharded=False)
        wrap, answers = _ADMITTED_ROUTES[path]
        spec = wrap(workload.spec(method="in_edge").to_dict())
        with serve(session) as running:
            gate = session.admission
            assert gate is not None
            gate.acquire()  # occupy the only slot: the server is "busy"
            try:
                status, headers, body = _post_error(running.url, path, spec)
                assert status == 503
                assert body["error"]["type"] == "OverloadedError"
                assert "retry after 2.5s" in body["error"]["message"]
                # Retry-After is integer seconds, rounded up
                assert headers["Retry-After"] == "3"
            finally:
                gate.release()
            # load gone: the same request is admitted and served
            status, body = _post(running.url, path, spec)
            assert status == 200
            assert answers(body) > 0
            assert session.stats_snapshot().shed_queries == 1

    def test_unbounded_config_exposes_no_gate(self, workload):
        session = workload.open_session(config=EngineConfig(), sharded=False)
        with serve(session) as running:
            assert session.admission is None  # max_queue_depth=None
            status, _ = _post(
                running.url, "/execute", workload.spec(method="in_edge").to_dict()
            )
            assert status == 200


class TestBodyCap:
    def test_oversized_content_length_is_refused_413(self, workload):
        session = workload.open_session(config=EngineConfig(), sharded=False)
        with serve(session) as running:
            oversized = _MAX_BODY + 1
            request = (
                f"POST /execute HTTP/1.1\r\n"
                f"Host: {running.host}:{running.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {oversized}\r\n\r\n"
            ).encode("ascii")
            # the server must answer from the headers alone — the body
            # is never sent, so reading it would hang forever
            response = _raw_exchange(running.host, running.port, request)
            head, _, body = response.partition(b"\r\n\r\n")
            assert b"413" in head.splitlines()[0]
            payload = json.loads(body)
            assert "exceeds" in payload["error"]["message"]
            # refused oversized uploads close the connection: recv
            # already drained to EOF above, proving the close

    @pytest.mark.parametrize("length", [None, "abc"], ids=["missing", "unreadable"])
    def test_missing_content_length_is_400(self, workload, length):
        session = workload.open_session(config=EngineConfig(), sharded=False)
        headers = {"Content-Type": "application/json"}
        if length is not None:
            headers["Content-Length"] = length
        with serve(session) as running:
            request = urllib.request.Request(
                running.url + "/execute",
                data=b"",
                headers=headers,
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400


class TestRequestTimeout:
    def test_stalled_client_is_dropped(self, workload):
        session = workload.open_session(config=EngineConfig(), sharded=False)
        with serve(session, request_timeout=0.5) as running:
            started = time.monotonic()
            # connect and go silent: never send a request line
            response = _raw_exchange(
                running.host, running.port, b"", timeout=10.0
            )
            elapsed = time.monotonic() - started
            assert response == b""  # dropped, not answered
            assert elapsed < 8.0  # the 0.5s timeout fired, not the client's

    def test_live_clients_are_unaffected(self, workload):
        session = workload.open_session(config=EngineConfig(), sharded=False)
        with serve(session, request_timeout=5.0) as running:
            status, body = _post(
                running.url, "/execute", workload.spec(method="in_edge").to_dict()
            )
            assert status == 200
            assert body["total"] > 0
