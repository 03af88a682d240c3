"""A thin HTTP front door over :class:`~repro.api.Session`.

Stdlib-only (``http.server`` with a threading mixin), JSON in / JSON
out, no framework. The server owns nothing — it translates HTTP to
session calls and session results/errors to status codes, so every
semantic guarantee (bit-identical sharded scores, thread/process
equivalence, error classification) is the session's, not the server's.

Endpoints:

===================  ======  ===============================================
``/execute``         POST    one spec dict -> ``ResultSet.to_dict()``
``/execute_many``    POST    ``{"specs": [...]}`` -> per-spec results, with
                             per-spec error records in place
``/explain``         POST    one spec dict -> ``Explanation.as_dict()``
``/stats``           GET     aggregated engine counters
``/shard_stats``     GET     per-shard counters + worker pids/restarts
``/health``          GET     liveness + mode + shard count
===================  ======  ===============================================

Library errors map to ``400`` (the request was understood and is
deterministically unanswerable), transport-and-infrastructure errors to
``502``, unknown routes to ``404``, malformed JSON to ``400``, a body
larger than the configured cap to ``413``, and anything unexpected to
``500`` — always with a JSON body carrying
``{"error": {"type", "message"}}``. The session admits and coalesces
requests; when its admission gate (``EngineConfig.max_queue_depth``)
sheds one, the server answers ``503`` with a ``Retry-After`` header.
Connections that go quiet are dropped after ``request_timeout``
seconds so a stalled client cannot pin a handler thread.

Run it from the command line via ``python -m repro.serving`` (see
:mod:`repro.serving.__main__`).
"""

from __future__ import annotations

import functools
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Mapping, Optional, Tuple

from repro.api.session import Session
from repro.errors import (
    EmptyAnswerError,
    OverloadedError,
    QueryError,
    ReproError,
    ShardError,
)

__all__ = ["ServingServer", "serve"]

_MAX_BODY = 16 * 1024 * 1024
_REQUEST_TIMEOUT = 30.0
#: routes whose body may carry a ``limit`` on the answers returned
_PAGED_ROUTES = ("/execute", "/execute_many")


def _error_body(exc: BaseException) -> Dict[str, object]:
    record: Dict[str, object] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, EmptyAnswerError):
        record["kind"] = exc.kind
    return {"error": record}


def _checked_limit(value: object) -> Optional[int]:
    """A request's ``limit``: absent/null, or a positive int. ``bool`` is
    an ``int`` subclass in Python, so ``true`` is refused explicitly."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise QueryError(
            f'"limit" must be a positive integer or null, got {value!r}'
        )
    return value


def _status_for(exc: ReproError) -> int:
    # a shed request is the server's state, not the query's fault:
    # retryable, hence 503 (the handler adds Retry-After)
    if isinstance(exc, OverloadedError):
        return 503
    # a failed shard (a broken worker transport despite bounded
    # restarts, or an error only some shards raised) is upstream
    # infrastructure trouble; everything else ReproError-shaped is a
    # deterministic property of the query
    return 502 if isinstance(exc, ShardError) else 400


class _Handler(BaseHTTPRequestHandler):
    """One request; the session lives on ``self.server``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serving"

    def setup(self) -> None:
        # self.timeout becomes the socket timeout in the base setup();
        # handle_one_request treats a timed-out read as a dropped
        # connection, so a stalled client cannot pin a handler thread
        self.timeout = getattr(self.server, "request_timeout", _REQUEST_TIMEOUT)
        super().setup()

    # ------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------ #

    def log_message(self, format: str, *args: object) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _session(self) -> Session:
        return self.server.session  # type: ignore[attr-defined]

    def _reply(
        self,
        status: int,
        payload: Mapping[str, object],
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Optional[Dict[str, object]]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            # no readable length: refused like a missing one, and closed,
            # since the body (if any) cannot be delimited
            self.close_connection = True
            length = 0
        if length > _MAX_BODY:
            # 413, and close: the client would otherwise stream the
            # oversized body into a connection we will not read
            self.close_connection = True
            self._reply(413, _error_body(QueryError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY}-byte cap"
            )))
            return None
        if length <= 0:
            self._reply(400, _error_body(QueryError(
                f"request body must be 1..{_MAX_BODY} bytes of JSON, "
                f"got Content-Length {header}"
            )))
            return None
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._reply(400, _error_body(QueryError(f"malformed JSON body: {exc}")))
            return None
        if not isinstance(payload, dict):
            self._reply(400, _error_body(QueryError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )))
            return None
        return payload

    # ------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        route = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if route == "/health":
                self._reply(200, self._health())
            elif route == "/stats":
                self._reply(200, {"engine": self._session().stats_snapshot().as_dict()})
            elif route == "/shard_stats":
                self._reply(200, self._shard_stats())
            else:
                self._reply(404, _error_body(QueryError(f"no route {route!r}")))
        except ReproError as exc:
            self._reply(_status_for(exc), _error_body(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._reply(500, _error_body(exc))

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        route = self.path.split("?", 1)[0].rstrip("/") or "/"
        handlers = {
            "/execute": self._execute,
            "/execute_many": self._execute_many,
            "/explain": self._explain,
        }
        handler = handlers.get(route)
        if handler is None:
            self._reply(404, _error_body(QueryError(f"no route {route!r}")))
            return
        payload = self._read_json()
        if payload is None:
            return
        try:
            if route in _PAGED_ROUTES:
                # validated before admission: a bad limit is a 400 that
                # never queues for a slot or reaches the session
                handler = functools.partial(
                    handler, limit=_checked_limit(payload.pop("limit", None))
                )
            # the session admits (and may shed with OverloadedError ->
            # 503 + Retry-After) and coalesces identical specs
            status, reply = handler(payload)
            self._reply(status, reply)
        except ReproError as exc:
            headers: Optional[Dict[str, str]] = None
            if isinstance(exc, OverloadedError):
                # Retry-After takes integer seconds; round up so the
                # hint never undershoots the configured backoff
                headers = {"Retry-After": str(max(1, -int(-exc.retry_after // 1)))}
            self._reply(_status_for(exc), _error_body(exc), headers)
        except Exception as exc:  # pragma: no cover - defensive
            self._reply(500, _error_body(exc))

    # ------------------------------------------------------------ #
    # endpoint bodies
    # ------------------------------------------------------------ #

    def _execute(
        self, payload: Dict[str, object], limit: Optional[int]
    ) -> Tuple[int, Dict[str, object]]:
        results = self._session().execute(payload)
        return 200, results.to_dict(limit)

    def _execute_many(
        self, payload: Dict[str, object], limit: Optional[int]
    ) -> Tuple[int, Dict[str, object]]:
        specs = payload.get("specs")
        if not isinstance(specs, list):
            raise QueryError('execute_many body must carry a "specs" list')
        outcomes = self._session().execute_many(specs, return_errors=True)
        records: List[Dict[str, object]] = []
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                records.append(_error_body(outcome))
            else:
                records.append(outcome.to_dict(limit))
        return 200, {"results": records, "count": len(records)}

    def _explain(self, payload: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        explanation = self._session().explain(payload)
        return 200, explanation.as_dict()

    def _health(self) -> Dict[str, object]:
        session = self._session()
        record: Dict[str, object] = {
            "status": "closed" if session.closed else "ok",
            "sharded": session.sharded,
            "shard_mode": session.config.shard_mode,
            "shards": session.config.shards,
        }
        engine = getattr(session, "process_engine", None)
        if engine is not None:
            workers = engine.describe_workers()
            record["shards"] = len(workers)
            record["workers_alive"] = sum(1 for w in workers if w["alive"])
        return record

    def _shard_stats(self) -> Dict[str, object]:
        session = self._session()
        stats = [snapshot.as_dict() for snapshot in session.shard_stats()]
        record: Dict[str, object] = {"shards": stats}
        engine = getattr(session, "process_engine", None)
        if engine is not None:
            record["workers"] = engine.describe_workers()
        return record


class ServingServer:
    """The HTTP front door: one :class:`~repro.api.Session`, one
    threading HTTP server, explicit lifecycle.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction. :meth:`serve_forever` blocks (the CLI path);
    :meth:`start` runs the accept loop on a daemon thread (tests,
    embedding). Closing stops the loop and, when ``own_session`` is
    set, closes the session — reaping worker processes with it.
    """

    def __init__(
        self,
        session: Session,
        host: str = "127.0.0.1",
        port: int = 0,
        own_session: bool = True,
        verbose: bool = False,
        request_timeout: float = _REQUEST_TIMEOUT,
    ) -> None:
        self.session = session
        self.own_session = own_session
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.session = session  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.request_timeout = request_timeout  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServingServer":
        """Serve on a background daemon thread (returns immediately)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-serving",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (or
        ``shutdown()`` from a signal handler)."""
        self._httpd.serve_forever()

    def close(self) -> None:
        """Stop accepting, join the loop thread, release the socket,
        and (when owned) close the session. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._httpd.server_close()
        if self.own_session:
            self.session.close()

    def __enter__(self) -> "ServingServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def serve(
    session: Session,
    host: str = "127.0.0.1",
    port: int = 0,
    own_session: bool = True,
    verbose: bool = False,
    request_timeout: float = _REQUEST_TIMEOUT,
) -> ServingServer:
    """Start a :class:`ServingServer` over ``session`` on a background
    thread and return it (use as a context manager to guarantee
    shutdown)."""
    return ServingServer(
        session, host=host, port=port, own_session=own_session,
        verbose=verbose, request_timeout=request_timeout,
    ).start()
