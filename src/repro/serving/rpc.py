"""Newline-delimited JSON-RPC 2.0 codec for the shard worker protocol.

One message per line, UTF-8 JSON, ``\\n``-terminated — the LSP-style
framing a long-lived local protocol wants: trivially debuggable
(``socat`` the socket and read it), no length-prefix bookkeeping, and
resynchronisable by dropping the connection. Requests and responses
follow JSON-RPC 2.0 (``jsonrpc``/``id``/``method``/``params`` out,
``result`` or ``error`` back); the worker additionally sends one
``hello`` notification after bootstrap, which doubles as the parent's
readiness barrier.

The payload codecs below are the *semantic* half of the protocol: graph
node ids (``(entity_set, key)`` tuples, possibly nested) survive JSON's
tuple/list conflation, score fragments round-trip bit-identically
(Python's ``json`` emits ``repr``-exact floats), and library exceptions
cross the process boundary as ``{type, message, kind}`` records that
reconstruct into the *same* exception type with the *same* message —
which is what lets the process-sharded engine classify failures exactly
like the thread-mode engine does.
"""

from __future__ import annotations

import dataclasses
import json
import socket
from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

import repro.errors as _errors
from repro.engine.ranking import EngineStats
from repro.engine.sharded import ShardFragment
from repro.errors import EmptyAnswerError, QueryError, ReproError, ShardError
from repro.integration.builder import BuildStats, NodePayload

__all__ = [
    "RPC_PROTOCOL_VERSION",
    "RpcConnection",
    "RpcRemoteError",
    "RpcTransportError",
    "decode_build_stats",
    "decode_engine_stats",
    "decode_exception",
    "decode_fragment",
    "decode_message",
    "decode_node",
    "encode_build_stats",
    "encode_engine_stats",
    "encode_exception",
    "encode_fragment",
    "encode_message",
    "encode_node",
]

#: bumped when the wire protocol changes incompatibly; the hello
#: handshake rejects a worker speaking a different version
RPC_PROTOCOL_VERSION = 1

#: JSON-RPC 2.0 error codes used by the worker
RPC_INVALID_REQUEST = -32600
RPC_METHOD_NOT_FOUND = -32601
RPC_APPLICATION_ERROR = -32000

_MAX_LINE = 64 * 1024 * 1024  # a malformed peer cannot OOM the reader


class RpcTransportError(ShardError):
    """The connection to a worker broke: EOF, reset, timeout, or a line
    that is not valid JSON-RPC. The worker's protocol state is unknown
    after any of these, so the supervisor's only safe move is
    restart-and-retry."""


class RpcRemoteError(QueryError):
    """The worker answered with a JSON-RPC error object (an
    *application* error — the RPC itself worked). ``remote`` carries
    the reconstructed library exception when one was encoded."""

    def __init__(self, message: str, code: int = RPC_APPLICATION_ERROR,
                 remote: Optional[BaseException] = None):
        super().__init__(message)
        self.code = code
        self.remote = remote


# ------------------------------------------------------------------ #
# message framing
# ------------------------------------------------------------------ #


def encode_message(message: Mapping[str, object]) -> bytes:
    """One JSON-RPC message as a newline-terminated UTF-8 line."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict[str, object]:
    """Parse one received line; anything non-JSON or non-object is a
    transport error (the stream cannot be trusted afterwards)."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RpcTransportError(
            f"malformed JSON-RPC line ({exc}): {line[:120]!r}"
        ) from None
    if not isinstance(message, dict) or message.get("jsonrpc") != "2.0":
        raise RpcTransportError(
            f"not a JSON-RPC 2.0 message: {line[:120]!r}"
        )
    return message


def request(request_id: int, method: str, params: Mapping[str, object]) -> Dict[str, object]:
    return {"jsonrpc": "2.0", "id": request_id, "method": method, "params": dict(params)}


def notification(method: str, params: Mapping[str, object]) -> Dict[str, object]:
    return {"jsonrpc": "2.0", "method": method, "params": dict(params)}


def response(request_id: object, result: object) -> Dict[str, object]:
    return {"jsonrpc": "2.0", "id": request_id, "result": result}


def error_response(request_id: object, code: int, message: str,
                   data: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
    error: Dict[str, object] = {"code": code, "message": message}
    if data is not None:
        error["data"] = dict(data)
    return {"jsonrpc": "2.0", "id": request_id, "error": error}


# ------------------------------------------------------------------ #
# payload codecs
# ------------------------------------------------------------------ #


def encode_node(node: Hashable) -> object:
    """Graph node ids are ``(entity_set, key)`` tuples (keys may nest
    tuples); JSON has no tuple, so encode to lists recursively."""
    if isinstance(node, tuple):
        return [encode_node(item) for item in node]
    return node


def decode_node(value: object) -> Hashable:
    """The inverse of :func:`encode_node`: lists back to tuples. A
    *list* can never be a real node id (node ids are hashable), so the
    conflation is lossless for everything the builder produces."""
    if isinstance(value, list):
        return tuple(decode_node(item) for item in value)
    return value


def encode_build_stats(stats: BuildStats) -> Dict[str, object]:
    return {
        "nodes": stats.nodes,
        "edges": stats.edges,
        "dangling_links": stats.dangling_links,
        "visited_entities": dict(stats.visited_entities),
    }


def decode_build_stats(data: Mapping[str, Any]) -> BuildStats:
    return BuildStats(
        nodes=int(data["nodes"]),
        edges=int(data["edges"]),
        dangling_links=int(data["dangling_links"]),
        visited_entities=dict(data.get("visited_entities", {})),
    )


def encode_engine_stats(stats: EngineStats) -> Dict[str, object]:
    """Counters only (the derived rates are recomputed on decode).
    Generic over the dataclass fields so new counters (coalescing,
    admission) cross the wire without touching the codec."""
    return {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)}


def decode_engine_stats(data: Mapping[str, Any]) -> EngineStats:
    # unknown keys from a newer peer are dropped, missing keys from an
    # older peer default to 0 — both directions stay decodable
    return EngineStats(**{
        f.name: int(data.get(f.name, 0))
        for f in dataclasses.fields(EngineStats)
    })


def encode_exception(exc: BaseException) -> Dict[str, object]:
    """A library exception as a wire record. ``type`` is the class name
    (resolved against :mod:`repro.errors` on decode), ``kind`` rides
    along for :class:`~repro.errors.EmptyAnswerError` so the gather's
    emptiness classification survives the boundary."""
    record: Dict[str, object] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    kind = getattr(exc, "kind", None)
    if isinstance(exc, EmptyAnswerError) and kind is not None:
        record["kind"] = kind
    return record


def decode_exception(data: Mapping[str, Any]) -> ReproError:
    """Reconstruct the exception a worker raised. Unknown types decay
    to :class:`~repro.errors.QueryError` carrying the original type
    name, so nothing is silently swallowed."""
    type_name = str(data.get("type", "QueryError"))
    message = str(data.get("message", ""))
    cls = getattr(_errors, type_name, None)
    if cls is EmptyAnswerError:
        return EmptyAnswerError(message, kind=str(data.get("kind", "no-answers")))
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(message)
    return QueryError(f"{type_name}: {message}")


# ------------------------------------------------------------------ #
# connection
# ------------------------------------------------------------------ #


class RpcConnection:
    """One newline-delimited JSON-RPC peer over a connected socket.

    Not thread-safe by itself — the supervisor serialises calls per
    worker with a lock; the worker serves one request at a time.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = b""
        self._next_id = 0

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    # ---------------------------------------------------------- #
    # raw line I/O
    # ---------------------------------------------------------- #

    def send(self, message: Mapping[str, object]) -> None:
        try:
            self._sock.sendall(encode_message(message))
        except OSError as exc:
            raise RpcTransportError(f"send failed: {exc}") from None

    def send_raw(self, payload: bytes) -> None:
        """Write arbitrary bytes (the fault injector's garbage mode)."""
        self._sock.sendall(payload)

    def receive(self, timeout: Optional[float] = None) -> Dict[str, object]:
        """The next message, or :class:`RpcTransportError` on EOF,
        timeout, reset, or a malformed line."""
        line = self._read_line(timeout)
        return decode_message(line)

    def _read_line(self, timeout: Optional[float]) -> bytes:
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = self._buffer[:newline]
                self._buffer = self._buffer[newline + 1:]
                return line
            if len(self._buffer) > _MAX_LINE:
                raise RpcTransportError(
                    f"peer sent {len(self._buffer)} bytes without a newline"
                )
            try:
                self._sock.settimeout(timeout)
                chunk = self._sock.recv(65536)
            except socket.timeout:
                raise RpcTransportError(
                    f"no response within {timeout:.1f}s (worker hung?)"
                ) from None
            except OSError as exc:
                raise RpcTransportError(f"receive failed: {exc}") from None
            if not chunk:
                raise RpcTransportError("connection closed by peer")
            self._buffer += chunk

    # ---------------------------------------------------------- #
    # client-side call
    # ---------------------------------------------------------- #

    def call(self, method: str, params: Mapping[str, object],
             timeout: Optional[float] = None) -> object:
        """Send one request and block for its response.

        Raises :class:`RpcTransportError` when the transport breaks
        (restart the worker) and :class:`RpcRemoteError` when the
        worker returns a JSON-RPC error object (an application error —
        do *not* restart)."""
        self._next_id += 1
        request_id = self._next_id
        self.send(request(request_id, method, params))
        message = self.receive(timeout)
        if message.get("id") != request_id:
            raise RpcTransportError(
                f"out-of-order response: expected id {request_id}, got "
                f"{message.get('id')!r}"
            )
        if "error" in message:
            error = message["error"]
            if not isinstance(error, dict):
                raise RpcTransportError(f"malformed error object: {error!r}")
            data = error.get("data")
            remote = decode_exception(data) if isinstance(data, dict) else None
            raise RpcRemoteError(
                str(error.get("message", "worker error")),
                code=int(error.get("code", RPC_APPLICATION_ERROR)),
                remote=remote,
            )
        if "result" not in message:
            raise RpcTransportError(
                f"response carries neither result nor error: {message!r}"
            )
        return message["result"]


def encode_fragment_scores(owned: List[Tuple[Hashable, float, str]]) -> List[List[object]]:
    """The owned-answer payload: ``[node, score, label]`` triples.
    (entity_set and key are the node id's own components.)"""
    return [[encode_node(node), score, label] for node, score, label in owned]


def decode_fragment_scores(data: List[List[object]]) -> List[Tuple[Hashable, float, str]]:
    return [(decode_node(node), float(score), str(label)) for node, score, label in data]


def encode_fragment(fragment: ShardFragment) -> Dict[str, object]:
    """A worker's :class:`~repro.engine.sharded.ShardFragment` as the
    ``score_fragment`` result record (the graph stays in the worker)."""
    if fragment.empty is not None:
        return {
            "status": "empty",
            "kind": fragment.empty.kind,
            "message": str(fragment.empty),
            "build_seconds": fragment.build_seconds,
        }
    return {
        "status": "ok",
        "owned": encode_fragment_scores([
            (node, score, str(fragment.payload(node).label))
            for node, score in fragment.scores.items()
        ]),
        "build_stats": encode_build_stats(fragment.build_stats),  # type: ignore[arg-type]
        "graph_cached": fragment.graph_cached,
        "score_cached": fragment.score_cached,
        "build_seconds": fragment.build_seconds,
        "rank_seconds": fragment.rank_seconds,
    }


def decode_fragment(shard: int, record: object) -> ShardFragment:
    """The inverse of :func:`encode_fragment`. A record that does not
    decode is a transport failure: the worker's state is unknown."""
    try:
        if record["status"] == "empty":  # type: ignore[index]
            return ShardFragment(
                shard,
                build_seconds=float(record["build_seconds"]),  # type: ignore[index]
                empty=EmptyAnswerError(
                    str(record["message"]), kind=str(record["kind"])  # type: ignore[index]
                ),
            )
        fragment = ShardFragment(
            shard,
            build_stats=decode_build_stats(record["build_stats"]),  # type: ignore[index]
            graph_cached=bool(record["graph_cached"]),  # type: ignore[index]
            score_cached=bool(record["score_cached"]),  # type: ignore[index]
            build_seconds=float(record["build_seconds"]),  # type: ignore[index]
            rank_seconds=float(record["rank_seconds"]),  # type: ignore[index]
        )
        for node, score, label in decode_fragment_scores(record["owned"]):  # type: ignore[index]
            entity_set, key = node
            fragment.scores[node] = score
            fragment.payloads[node] = NodePayload(
                entity_set=entity_set, key=key, record=None, label=label
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise RpcTransportError(
            f"shard {shard} failed during scatter/gather: malformed "
            f"fragment {record!r} ({type(exc).__name__}: {exc})"
        ) from None
    return fragment
