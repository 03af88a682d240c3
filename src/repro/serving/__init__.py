"""Process-parallel shard serving behind a JSON-RPC front door.

The sharded engine of :mod:`repro.engine.sharded` scatters on a thread
pool inside one process — a crashed or GIL-bound shard takes the whole
session down. This package promotes shards to worker *processes*:

* :mod:`repro.serving.rpc` — the newline-delimited JSON-RPC 2.0 codec
  plus the payload codecs (nodes, fragments, stats, exceptions) the
  scatter/gather protocol serialises;
* :mod:`repro.serving.source` — :class:`WorkerSource`, the portable
  recipe a worker process follows to rebuild its shard mediator
  (a ``module:callable`` factory plus JSON kwargs — persisted shard
  files re-attach, memory workloads regenerate from the same seed);
* :mod:`repro.serving.worker` — the :class:`ShardWorker` process
  entrypoint (``python -m repro.serving.worker``) that owns its
  ``layer<i>.shard<s>.sqlite`` (or vectorized-manifest) files and
  answers ``score_fragment`` / ``repair`` / ``stats`` / ``ping`` RPCs
  over a local socket;
* :mod:`repro.serving.engine` — :class:`ProcessShardedEngine`, the
  drop-in beside :class:`~repro.engine.sharded.ShardedEngine` selected
  via ``EngineConfig(shard_mode="process")``: spawns and supervises the
  workers, scatters every query over RPC, decodes each reply into the
  same :class:`~repro.engine.sharded.ShardFragment` thread mode builds
  and merges with the one :func:`~repro.engine.sharded.merge_fragments`,
  and survives worker death with bounded retry-with-restart;
* :mod:`repro.serving.server` — the thin HTTP front door over
  :class:`~repro.api.Session` (execute / execute_many / explain /
  stats / health / shard_stats), runnable as ``python -m
  repro.serving``.

See ``docs/serving.md`` for the wire protocol, the supervision/retry
policy and the failure classification table.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.serving.engine import ProcessShardedEngine, WorkerHandle, live_worker_processes
    from repro.serving.rpc import (
        RPC_PROTOCOL_VERSION,
        RpcConnection,
        RpcRemoteError,
        RpcTransportError,
        decode_exception,
        decode_message,
        decode_node,
        encode_exception,
        encode_message,
        encode_node,
    )
    from repro.serving.server import ServingServer, serve
    from repro.serving.source import WorkerSource
    from repro.serving.worker import ShardWorker

__all__ = [
    "ProcessShardedEngine",
    "RPC_PROTOCOL_VERSION",
    "RpcConnection",
    "RpcRemoteError",
    "RpcTransportError",
    "ServingServer",
    "ShardWorker",
    "WorkerHandle",
    "WorkerSource",
    "decode_exception",
    "decode_message",
    "decode_node",
    "encode_exception",
    "encode_message",
    "encode_node",
    "live_worker_processes",
    "serve",
]


#: export -> defining submodule. Exports resolve on first use (PEP 562),
#: so a worker process importing ``repro.serving.worker`` loads neither
#: the HTTP front door nor the supervisor.
_EXPORTS = {
    "ProcessShardedEngine": "engine",
    "WorkerHandle": "engine",
    "live_worker_processes": "engine",
    "RPC_PROTOCOL_VERSION": "rpc",
    "RpcConnection": "rpc",
    "RpcRemoteError": "rpc",
    "RpcTransportError": "rpc",
    "decode_exception": "rpc",
    "decode_message": "rpc",
    "decode_node": "rpc",
    "encode_exception": "rpc",
    "encode_message": "rpc",
    "encode_node": "rpc",
    "ServingServer": "server",
    "serve": "server",
    "WorkerSource": "source",
    "ShardWorker": "worker",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
