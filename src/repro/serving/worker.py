"""The shard worker process: one shard's engine behind JSON-RPC.

``python -m repro.serving.worker '<bootstrap-json>'`` is spawned by
:class:`~repro.serving.engine.ProcessShardedEngine` (one process per
shard). The worker:

1. connects back to the supervisor's per-shard socket;
2. resolves its :class:`~repro.serving.source.WorkerSource` — thereby
   *owning* its shard's storage (``layer<i>.shard<s>.sqlite`` files
   re-attach, vectorized manifests mmap, memory workloads regenerate
   from the recipe's seed) — and builds a
   :class:`~repro.engine.ranking.RankingEngine` over its shard's
   mediator;
3. sends the ``hello`` notification (the supervisor's readiness
   barrier, carrying the spawn token and protocol version);
4. serves newline-delimited JSON-RPC requests one at a time until EOF
   or a ``shutdown`` request.

RPCs: ``score_fragment`` (execute + rank + ownership-filter one spec),
``explain`` / ``provenance`` (answer-level evidence from the owning
shard's graph), ``stats`` / ``reset_stats``, ``repair`` (drop caches,
optionally rebuild the mediator from the source recipe — how an
operator re-attaches refreshed shard files without a restart),
``ping``, ``shutdown``, and the test-only ``inject_fault``.

Failure classification starts here: an empty shard answers a regular
``{"status": "empty", kind, message}`` result (its partition simply
holds no answers), while library errors travel as JSON-RPC error
objects carrying ``{type, message}`` so the supervisor can re-raise
deterministic query errors exactly as thread mode would.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import time
from typing import Callable, Dict, Mapping, Optional

from repro.api.spec import QuerySpec
from repro.core.paths import enumerate_paths, explain_answer
from repro.engine.ranking import RankingEngine
from repro.engine.sharded import ShardRouter, score_fragment
from repro.errors import QueryError, ReproError
from repro.serving import rpc
from repro.serving.source import WorkerSource

__all__ = ["ShardWorker", "main"]


class ShardWorker:
    """One shard's serving state inside a worker process."""

    def __init__(
        self,
        shard: int,
        source: WorkerSource,
        engine_options: Optional[Mapping[str, object]] = None,
    ):
        self.shard = shard
        self.source = source
        self._engine_options = dict(engine_options or {})
        self._cleanup: Optional[Callable[[], None]] = None
        self.router: Optional[ShardRouter] = None
        self.engine: Optional[RankingEngine] = None
        #: test-only fault injection state (see ``inject_fault``)
        self._fault: Optional[Dict[str, object]] = None
        self._queries_served = 0
        self._rebuild()

    def _rebuild(self) -> None:
        """(Re)resolve the source recipe: re-attach this shard's files
        and build a fresh engine over the shard mediator."""
        if self._cleanup is not None:
            try:
                self._cleanup()
            except Exception:
                pass
        router, cleanup = self.source.resolve()
        if not 0 <= self.shard < router.shards:
            raise QueryError(
                f"shard index {self.shard} out of range for "
                f"{router.shards} shard(s)"
            )
        self.router = router
        self._cleanup = cleanup
        self.engine = RankingEngine(
            mediator=router.mediators[self.shard], **self._engine_options
        )

    def close(self) -> None:
        if self.engine is not None:
            self.engine.invalidate()
        if self._cleanup is not None:
            try:
                self._cleanup()
            except Exception:
                pass
            self._cleanup = None

    # ------------------------------------------------------------ #
    # RPC methods
    # ------------------------------------------------------------ #

    def score_fragment(self, params: Mapping[str, object]) -> Dict[str, object]:
        """Execute + rank one spec on this shard, returning the owned
        fragment as its RPC record (see :func:`~repro.engine.sharded.score_fragment`)."""
        assert self.engine is not None and self.router is not None
        fragment = score_fragment(
            self.engine,
            self.router,
            self.shard,
            QuerySpec.from_dict(params["spec"]),  # type: ignore[arg-type]
        )
        self._queries_served += 1
        return rpc.encode_fragment(fragment)

    def _graph_for(self, params: Mapping[str, object]):
        spec = QuerySpec.from_dict(params["spec"])  # type: ignore[arg-type]
        assert self.engine is not None
        return self.engine.execute(spec.to_exploratory())

    def explain(self, params: Mapping[str, object]) -> str:
        """Human-readable provenance of one owned answer (identical to
        the thread-mode string — same shard graph, same renderer)."""
        qg = self._graph_for(params)
        node = rpc.decode_node(params["node"])
        return explain_answer(qg, node, top=int(params.get("top", 3)))

    def provenance(self, params: Mapping[str, object]) -> list:
        qg = self._graph_for(params)
        node = rpc.decode_node(params["node"])
        paths = enumerate_paths(
            qg, node, max_paths=int(params.get("max_paths", 1000))
        )[: int(params.get("top", 3))]
        return [
            {
                "nodes": [rpc.encode_node(n) for n in path.nodes],
                "probability": path.probability,
            }
            for path in paths
        ]

    def stats(self) -> Dict[str, object]:
        assert self.engine is not None
        return {
            "shard": self.shard,
            "pid": os.getpid(),
            "queries_served": self._queries_served,
            "engine": rpc.encode_engine_stats(self.engine.stats_snapshot()),
        }

    def reset_stats(self) -> Dict[str, object]:
        assert self.engine is not None
        self.engine.reset_stats()
        return {"ok": True}

    def repair(self, params: Mapping[str, object]) -> Dict[str, object]:
        """Drop the engine caches; with ``reload=true``, additionally
        re-resolve the source recipe so refreshed shard files are
        re-attached without a process restart."""
        started = time.perf_counter()
        if params.get("reload"):
            self._rebuild()
        else:
            assert self.engine is not None
            self.engine.invalidate()
        return {
            "ok": True,
            "reloaded": bool(params.get("reload")),
            "seconds": time.perf_counter() - started,
        }

    def inject_fault(self, params: Mapping[str, object]) -> Dict[str, object]:
        """Arm a test-only fault on the next ``score_fragment``:
        ``crash`` (die like SIGKILL, mid-request), ``hang`` (sleep past
        the supervisor's RPC timeout), ``garbage`` (answer with a line
        that is not JSON)."""
        mode = params.get("mode", "none")
        if mode not in ("none", "crash", "hang", "garbage"):
            raise QueryError(f"unknown fault mode {mode!r}")
        if mode == "none":
            self._fault = None
        else:
            self._fault = {
                "mode": mode,
                "remaining": int(params.get("calls", 1)),
                "seconds": float(params.get("seconds", 3600.0)),
            }
        return {"armed": mode}

    def take_fault(self) -> Optional[Dict[str, object]]:
        """Consume one armed fault application (serve-loop hook)."""
        fault = self._fault
        if fault is None:
            return None
        fault["remaining"] = int(fault["remaining"]) - 1
        if int(fault["remaining"]) <= 0:
            self._fault = None
        return fault


# ------------------------------------------------------------------ #
# serve loop
# ------------------------------------------------------------------ #


def _connect(address: Mapping[str, object]) -> socket.socket:
    family = address.get("family")
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(str(address["path"]))
        return sock
    if family == "tcp":
        return socket.create_connection(
            (str(address["host"]), int(address["port"]))  # type: ignore[arg-type]
        )
    raise QueryError(f"unknown socket family {family!r}")


def serve(worker: ShardWorker, conn: rpc.RpcConnection) -> None:
    """Answer requests until EOF or ``shutdown``."""
    while True:
        try:
            message = conn.receive(timeout=None)
        except rpc.RpcTransportError:
            return  # supervisor went away (or is restarting us)
        request_id = message.get("id")
        method = message.get("method")
        params = message.get("params") or {}
        if not isinstance(method, str) or not isinstance(params, dict):
            conn.send(rpc.error_response(
                request_id, rpc.RPC_INVALID_REQUEST, "malformed request"
            ))
            continue

        if method == "score_fragment":
            fault = worker.take_fault()
            if fault is not None:
                if fault["mode"] == "crash":
                    # die the way SIGKILL would: no cleanup, no reply
                    os._exit(137)
                elif fault["mode"] == "hang":
                    time.sleep(float(fault["seconds"]))
                elif fault["mode"] == "garbage":
                    conn.send_raw(b"%% this is not JSON-RPC %%\n")
                    continue

        if method == "shutdown":
            conn.send(rpc.response(request_id, {"ok": True}))
            return

        try:
            result = _dispatch(worker, method, params)
        except ReproError as exc:
            conn.send(rpc.error_response(
                request_id, rpc.RPC_APPLICATION_ERROR, str(exc),
                data=rpc.encode_exception(exc),
            ))
            continue
        except Exception as exc:  # noqa: BLE001 — the boundary must not die
            conn.send(rpc.error_response(
                request_id, rpc.RPC_APPLICATION_ERROR,
                f"{type(exc).__name__}: {exc}",
                data=rpc.encode_exception(exc),
            ))
            continue
        conn.send(rpc.response(request_id, result))


def _dispatch(worker: ShardWorker, method: str, params: Dict[str, object]) -> object:
    if method == "ping":
        return {"pong": True, "shard": worker.shard, "pid": os.getpid()}
    if method == "score_fragment":
        return worker.score_fragment(params)
    if method == "explain":
        return worker.explain(params)
    if method == "provenance":
        return worker.provenance(params)
    if method == "stats":
        return worker.stats()
    if method == "reset_stats":
        return worker.reset_stats()
    if method == "repair":
        return worker.repair(params)
    if method == "inject_fault":
        return worker.inject_fault(params)
    raise QueryError(f"unknown RPC method {method!r}")


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python -m repro.serving.worker '<bootstrap-json>'",
              file=sys.stderr)
        return 2
    try:
        boot = json.loads(argv[0])
    except json.JSONDecodeError as exc:
        print(f"bad bootstrap spec: {exc}", file=sys.stderr)
        return 2

    sock = _connect(boot["address"])
    conn = rpc.RpcConnection(sock)
    try:
        worker = ShardWorker(
            shard=int(boot["shard"]),
            source=WorkerSource.from_dict(boot["source"]),
            engine_options=boot.get("engine"),
        )
    except Exception as exc:  # surface bootstrap failures to the parent
        conn.send(rpc.notification("fatal", {
            "shard": boot.get("shard"),
            "error": f"{type(exc).__name__}: {exc}",
        }))
        conn.close()
        return 1
    conn.send(rpc.notification("hello", {
        "shard": worker.shard,
        "pid": os.getpid(),
        "token": boot.get("token"),
        "protocol": rpc.RPC_PROTOCOL_VERSION,
    }))
    try:
        serve(worker, conn)
    finally:
        worker.close()
        conn.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
