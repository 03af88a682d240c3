"""The process-sharded scatter/gather engine (supervisor side).

:class:`ProcessShardedEngine` is the drop-in beside
:class:`~repro.engine.sharded.ShardedEngine`, selected via
``EngineConfig(shard_mode="process")``: the same scatter/gather core —
each worker runs :func:`~repro.engine.sharded.score_fragment`, the
supervisor decodes its reply into the same
:class:`~repro.engine.sharded.ShardFragment`, and the one
:func:`~repro.engine.sharded.merge_fragments` classifies and merges —
but each shard lives in its own worker *process*, reached over
newline-delimited JSON-RPC on a local socket. A crashed, hung or
babbling worker costs one bounded restart-and-retry, never the
session.

Supervision policy (see ``docs/serving.md`` for the full table):

* **transport failures** (EOF, reset, timeout, non-JSON line) mean the
  worker's state is unknown → kill it, respawn from the
  :class:`~repro.serving.source.WorkerSource` recipe (the restarted
  worker re-attaches its shard files), and retry the request — at most
  ``worker_restarts`` times per request;
* **application errors** (the worker answered a well-formed JSON-RPC
  error) are deterministic query errors → never restart; classified
  like any shard error (identical on every shard → re-raise verbatim;
  partial → wrap naming the shard);
* **empty shards** are results, not failures (the partition simply
  holds no answers); only when every shard is empty does the
  single-engine :class:`~repro.errors.EmptyAnswerError` re-raise.
"""

from __future__ import annotations

import json
import os
import secrets
import socket
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional

if TYPE_CHECKING:
    from repro.api.spec import QuerySpec

from repro.core.paths import EvidencePath
from repro.engine.ranking import EngineStats
from repro.engine.sharded import Outcome, ShardRouter, ShardScatter
from repro.errors import QueryError, ShardError
from repro.serving import rpc
from repro.serving.source import WorkerSource

__all__ = [
    "ProcessShardedEngine",
    "WorkerHandle",
    "live_worker_processes",
]

NodeId = Hashable

#: every worker process ever spawned and not yet reaped, for leak
#: detection in tests and the atexit-style finalizer safety net
_LIVE_WORKERS: "weakref.WeakSet[subprocess.Popen]" = weakref.WeakSet()


def live_worker_processes() -> List[subprocess.Popen]:
    """Spawned worker processes that are still running (test hook: a
    suite leaking workers can fail itself on this)."""
    return [proc for proc in list(_LIVE_WORKERS) if proc.poll() is None]


def _worker_env() -> Dict[str, str]:
    """The spawn environment: inherit, but make sure the worker can
    import :mod:`repro` even when the parent runs from a source tree
    that is on ``sys.path`` without being on ``PYTHONPATH``."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if src not in parts:
        env["PYTHONPATH"] = os.pathsep.join([src] + parts) if parts else src
    return env


class WorkerHandle:
    """One supervised worker process plus its RPC connection.

    The handle owns the per-shard listening socket (bound once, reused
    across restarts), the :class:`subprocess.Popen`, and the accepted
    connection. ``call`` is locked — the engine's scatter threads and
    operator stats polls never interleave frames on one socket.
    """

    def __init__(
        self,
        shard: int,
        source: WorkerSource,
        engine_options: Mapping[str, object],
        socket_dir: str,
        boot_timeout: float = 60.0,
    ):
        self.shard = shard
        self.restarts = 0
        self._source = source
        self._engine_options = dict(engine_options)
        self._boot_timeout = boot_timeout
        self._lock = threading.Lock()
        self._token = secrets.token_hex(8)
        self._closed = False
        self._released = False
        self._boot_deadline = 0.0
        self.process: Optional[subprocess.Popen] = None
        self._conn: Optional[rpc.RpcConnection] = None
        # per-shard listener, bound once: a unix socket when the
        # platform has them (and the path fits AF_UNIX's limit),
        # loopback TCP otherwise
        path = os.path.join(socket_dir, f"shard{shard}.sock")
        if hasattr(socket, "AF_UNIX") and len(path) < 100:
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(path)
            self._address: Dict[str, object] = {"family": "unix", "path": path}
            self._socket_path: Optional[str] = path
        else:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.bind(("127.0.0.1", 0))
            host, port = self._listener.getsockname()
            self._address = {"family": "tcp", "host": host, "port": port}
            self._socket_path = None
        self._listener.listen(1)
        try:
            self._launch()
        except Exception:
            # a failed first launch must not leak the listener/socket file
            self._release_listener()
            raise

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    # ------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------ #

    def _launch(self) -> None:
        """Start a worker process; it boots while the caller goes on
        (see :meth:`handshake`)."""
        boot = {
            "protocol": rpc.RPC_PROTOCOL_VERSION,
            "shard": self.shard,
            "token": self._token,
            "address": self._address,
            "source": self._source.to_dict(),
            "engine": self._engine_options,
        }
        self._boot_deadline = time.monotonic() + self._boot_timeout
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serving.worker", json.dumps(boot)],
            env=_worker_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        _LIVE_WORKERS.add(self.process)

    def handshake(self) -> None:
        """Wait for the launched worker's ``hello`` and check its token,
        shard and protocol version; a ``fatal`` bootstrap report or a
        worker silent until ``boot_timeout`` after its launch is
        reaped and raised as :class:`~repro.serving.rpc.RpcTransportError`."""
        try:
            self._listener.settimeout(self._boot_remaining())
            try:
                accepted, _ = self._listener.accept()
            except socket.timeout:
                raise rpc.RpcTransportError(
                    f"shard {self.shard} worker did not connect within "
                    f"{self._boot_timeout:.0f}s: {self._stderr_tail()}"
                ) from None
            conn = rpc.RpcConnection(accepted)
            hello = conn.receive(timeout=self._boot_remaining())
        except rpc.RpcTransportError:
            self._reap()
            raise
        params = hello.get("params") or {}
        if hello.get("method") == "fatal":
            self._reap()
            raise rpc.RpcTransportError(
                f"shard {self.shard} worker failed to bootstrap: "
                f"{params.get('error')}"
            )
        if (
            hello.get("method") != "hello"
            or params.get("token") != self._token
            or params.get("shard") != self.shard
            or params.get("protocol") != rpc.RPC_PROTOCOL_VERSION
        ):
            self._reap()
            raise rpc.RpcTransportError(
                f"shard {self.shard} worker sent a bad handshake: {hello!r}"
            )
        self._conn = conn

    def _boot_remaining(self) -> float:
        # a socket timeout of 0 would mean non-blocking, not expired
        return max(self._boot_deadline - time.monotonic(), 1e-3)

    def _stderr_tail(self, limit: int = 400) -> str:
        if self.process is None or self.process.stderr is None:
            return "no stderr captured"
        try:
            self.process.kill()
            self.process.wait(timeout=5)
            tail = self.process.stderr.read() or b""
        except Exception:
            return "stderr unavailable"
        text = tail.decode("utf-8", "replace").strip()
        return text[-limit:] if text else "worker wrote nothing to stderr"

    def _reap(self) -> None:
        """Kill (if needed) and wait the current process; drop the
        connection. The listener stays bound for the next spawn."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self.process is not None:
            if self.process.poll() is None:
                self.process.kill()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
            if self.process.stderr is not None:
                try:
                    self.process.stderr.close()
                except OSError:
                    pass
            self.process = None

    def restart(self) -> None:
        """Replace a dead/undead worker with a fresh one (it re-runs
        the source recipe, re-attaching its shard files)."""
        self._respawn(force=True)

    def ensure_alive(self) -> None:
        """Respawn a worker already known to be dead (dropped
        connection or exited process) before use. A previous request
        exhausting *its* restart budget must not leave the shard dead
        for every later request — each request faces a live worker and
        its own full budget."""
        self._respawn(force=False)

    def _respawn(self, force: bool) -> None:
        """Reap the current worker and boot a fresh one, unless
        ``force`` is off and the worker is alive and connected."""
        with self._lock:
            if self._closed:
                raise rpc.RpcTransportError(
                    f"shard {self.shard} handle is closed"
                )
            if not force and self._conn is not None and self.alive:
                return
            self._reap()
            self.restarts += 1
            self._launch()
            self.handshake()

    def call(self, method: str, params: Mapping[str, object],
             timeout: Optional[float]) -> object:
        """One locked RPC round trip.

        Raises :class:`~repro.serving.rpc.RpcTransportError` when the
        transport broke (caller should restart+retry) and
        :class:`~repro.serving.rpc.RpcRemoteError` for application
        errors (caller must *not* retry)."""
        with self._lock:
            if self._closed or self._conn is None:
                raise rpc.RpcTransportError(
                    f"shard {self.shard} has no live worker connection"
                )
            try:
                return self._conn.call(method, params, timeout=timeout)
            except rpc.RpcRemoteError:
                raise
            except rpc.RpcTransportError:
                # the stream is unusable; drop it so a racing caller
                # fails fast instead of reading a half frame
                self._conn.close()
                self._conn = None
                raise

    def request_shutdown(self) -> None:
        """Refuse further calls and send the worker its ``shutdown``
        request without waiting for the reply, so a whole fleet winds
        down together (:meth:`close` then reaps). Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._conn is not None:
                try:
                    self._conn.send(rpc.request(0, "shutdown", {}))
                except rpc.RpcTransportError:
                    self._conn.close()
                    self._conn = None

    def close(self, graceful_timeout: float = 2.0) -> None:
        """Shut the worker down (graceful RPC first, then SIGKILL),
        reap it, and release the listener + socket file. The worker
        gets up to ``graceful_timeout`` to answer and exit on its own,
        so its storage cleanup runs. Idempotent."""
        self.request_shutdown()
        with self._lock:
            if self._released:
                return
            deadline = time.monotonic() + graceful_timeout
            if self._conn is not None:
                try:  # the reply, or EOF as the worker exits
                    self._conn.receive(timeout=graceful_timeout)
                except rpc.RpcTransportError:
                    pass
            if self.process is not None:
                try:
                    self.process.wait(timeout=max(deadline - time.monotonic(), 0.0))
                except subprocess.TimeoutExpired:
                    pass  # _reap kills it
            self._reap()
            self._release_listener()

    def _release_listener(self) -> None:
        self._released = True
        try:
            self._listener.close()
        except OSError:
            pass
        if self._socket_path is not None:
            try:
                os.unlink(self._socket_path)
            except OSError:
                pass


def _close_all(handles: List[WorkerHandle], graceful_timeout: float = 2.0) -> None:
    """Close every handle: all workers are asked to shut down before
    any is reaped."""
    for handle in handles:
        handle.request_shutdown()
    for handle in handles:
        handle.close(graceful_timeout)


class ProcessShardedEngine(ShardScatter):
    """N shard worker processes behind one scatter/gather surface.

    The sibling of :class:`~repro.engine.sharded.ShardedEngine` over
    the same scatter and merge (``gather`` / ``stats_snapshot`` /
    ``shard_stats`` / ``invalidate`` / ``close``), but each child engine
    lives in its own process, built from ``source`` with
    ``engine_options`` — the parent's ``router`` is used for *routing
    and ownership bookkeeping only*; shard storage is owned by the
    workers.
    """

    mode = "process"

    def __init__(
        self,
        router: ShardRouter,
        source: WorkerSource,
        engine_options: Optional[Mapping[str, object]] = None,
        rpc_timeout: float = 30.0,
        worker_restarts: int = 2,
        boot_timeout: float = 60.0,
    ):
        if source.shards != router.shards:
            raise QueryError(
                f"worker source describes {source.shards} shard(s) but the "
                f"router has {router.shards}"
            )
        super().__init__(router)
        self.source = source
        self.rpc_timeout = rpc_timeout
        self.worker_restarts = worker_restarts
        self._socket_dir = tempfile.mkdtemp(prefix="repro-shards-")
        self.workers: List[WorkerHandle] = []
        # every worker boots at once: all are launched before the first
        # handshake, and each one's boot_timeout runs from its own launch
        try:
            for shard in range(router.shards):
                self.workers.append(WorkerHandle(
                    shard,
                    source,
                    engine_options or {},
                    self._socket_dir,
                    boot_timeout=boot_timeout,
                ))
            for handle in self.workers:
                handle.handshake()
        except Exception:
            self.close()
            raise
        # safety net: a dropped engine must not leak OS processes
        self._finalizer = weakref.finalize(
            self, _finalize_workers, list(self.workers), self._socket_dir
        )

    @property
    def shards(self) -> int:
        return len(self.workers)

    # ------------------------------------------------------------ #
    # supervised RPC
    # ------------------------------------------------------------ #

    def _call_supervised(
        self, handle: WorkerHandle, method: str, params: Mapping[str, object]
    ) -> object:
        """Call with bounded restart-with-retry on transport failures.

        Application errors pass through untouched (they are
        deterministic — a restart cannot change them and must not mask
        them)."""
        failure: Optional[rpc.RpcTransportError] = None
        for attempt in range(self.worker_restarts + 1):
            try:
                if attempt > 0:
                    handle.restart()
                else:
                    # free respawn of a worker a *previous* request
                    # already found dead — not charged to this budget
                    handle.ensure_alive()
            except rpc.RpcTransportError as exc:
                failure = exc
                continue
            try:
                return handle.call(method, params, timeout=self.rpc_timeout)
            except rpc.RpcTransportError as exc:
                failure = exc
        raise ShardError(
            f"shard {handle.shard} failed during scatter/gather after "
            f"{self.worker_restarts} restart(s): {failure}"
        )

    # ------------------------------------------------------------ #
    # scatter/gather execution
    # ------------------------------------------------------------ #

    def _run(self, shard: int, spec: QuerySpec) -> Outcome:
        try:
            record = self._call_supervised(
                self.workers[shard], "score_fragment", {"spec": spec.to_dict()}
            )
            return "ok", rpc.decode_fragment(shard, record)
        except rpc.RpcRemoteError as exc:
            return "error", (exc.remote if exc.remote is not None else exc)
        except ShardError as exc:  # restarts exhausted, or a malformed record
            return "transport", exc

    # ------------------------------------------------------------ #
    # answer-level provenance (RPC to the owning shard)
    # ------------------------------------------------------------ #

    def explain_answer(
        self, shard: int, spec: QuerySpec, node: NodeId, top: int = 3
    ) -> str:
        result = self._call_supervised(self.workers[shard], "explain", {
            "spec": spec.to_dict(), "node": rpc.encode_node(node), "top": top,
        })
        return str(result)

    def provenance(
        self, shard: int, spec: QuerySpec, node: NodeId,
        top: int = 3, max_paths: int = 1000,
    ) -> List[EvidencePath]:
        records = self._call_supervised(self.workers[shard], "provenance", {
            "spec": spec.to_dict(), "node": rpc.encode_node(node),
            "top": top, "max_paths": max_paths,
        })
        return [
            EvidencePath(
                nodes=tuple(rpc.decode_node(item) for item in record["nodes"]),
                probability=float(record["probability"]),
            )
            for record in records  # type: ignore[union-attr]
        ]

    # ------------------------------------------------------------ #
    # stats and lifecycle (aggregated over the workers)
    # ------------------------------------------------------------ #

    def shard_stats(self) -> List[EngineStats]:
        return [
            rpc.decode_engine_stats(record["engine"])  # type: ignore[index]
            for record in self._broadcast("stats", {})
        ]

    def describe_workers(self) -> List[Dict[str, object]]:
        """Operator view: per-shard pid / restart count / liveness
        (what the HTTP front door's ``/shard_stats`` reports)."""
        return [
            {
                "shard": handle.shard,
                "pid": handle.pid,
                "alive": handle.alive,
                "restarts": handle.restarts,
            }
            for handle in self.workers
        ]

    def reset_stats(self) -> None:
        self._broadcast("reset_stats", {})

    def invalidate(self) -> None:
        self._broadcast("repair", {"reload": False})

    def repair(self, reload: bool = True) -> None:
        """Ask every worker to drop caches and (by default) re-resolve
        its source recipe — the operator path after refreshing the
        shard files on disk."""
        self._broadcast("repair", {"reload": reload})

    def _broadcast(self, method: str, params: Mapping[str, object]) -> List[object]:
        """One supervised call per worker, run across the workers on
        the scatter pool; replies in shard order."""
        return self._map(
            lambda shard, _: self._call_supervised(self.workers[shard], method, params),
            list(range(self.shards)), None,
        )

    def _release(self) -> None:
        """Reap every worker (graceful shutdown RPC to all, then
        SIGKILL as the backstop), release sockets and the socket
        directory."""
        _close_all(self.workers)
        finalizer = getattr(self, "_finalizer", None)
        if finalizer is not None:
            finalizer.detach()
        try:
            os.rmdir(self._socket_dir)
        except OSError:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"<ProcessShardedEngine {state} shards={self.shards} "
            f"source={self.source.factory!r}>"
        )


def _finalize_workers(handles: List[WorkerHandle], socket_dir: str) -> None:
    """Last-resort cleanup when an engine is garbage-collected without
    ``close()`` — OS processes must never outlive their supervisor."""
    try:
        _close_all(handles, graceful_timeout=0.5)
    except Exception:
        pass
    try:
        os.rmdir(socket_dir)
    except OSError:
        pass
