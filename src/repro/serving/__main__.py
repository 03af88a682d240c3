"""``python -m repro.serving`` — boot the HTTP front door.

Generates (or re-attaches, with ``--storage-path``) a
:func:`~repro.workloads.mediated.mediated_layers` workload, opens a
session over it in the requested shard mode, and serves the endpoints
of :mod:`repro.serving.server` until SIGINT/SIGTERM.

The first stdout line is a single JSON object announcing the bound
address — ``{"url", "host", "port", "pid", "shards", "shard_mode"}`` —
so a supervising script (CI's serving smoke, an operator wrapper) can
bind ``--port 0`` and still find the server.

Example::

    python -m repro.serving --layers 3 --width 40 --rng 7 \\
        --shards 2 --shard-mode process --port 8080
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import List, Optional

from repro.api import EngineConfig
from repro.serving.server import ServingServer
from repro.storage.backends import STORAGE_BACKENDS
from repro.workloads.mediated import mediated_layers

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="serve a generated mediated_layers workload over HTTP",
    )
    server = parser.add_argument_group("server")
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument("--port", type=int, default=0,
                        help="0 binds an ephemeral port (announced on stdout)")
    server.add_argument("--verbose", action="store_true",
                        help="log every request to stderr")
    sharding = parser.add_argument_group("sharding")
    sharding.add_argument("--shards", type=int, default=1)
    sharding.add_argument("--shard-mode", choices=("thread", "process"),
                          default="thread")
    sharding.add_argument("--rpc-timeout", type=float, default=30.0)
    sharding.add_argument("--worker-restarts", type=int, default=2)
    workload = parser.add_argument_group("workload (mediated_layers)")
    workload.add_argument("--layers", type=int, default=3)
    workload.add_argument("--width", type=int, default=40)
    workload.add_argument("--fan-out", type=int, default=3)
    workload.add_argument("--seeds", type=int, default=1)
    workload.add_argument("--rng", type=int, default=7,
                          help="integer seed (required for process mode)")
    workload.add_argument("--dangling-rate", type=float, default=0.0)
    workload.add_argument("--storage", default="memory",
                          choices=STORAGE_BACKENDS)
    workload.add_argument("--storage-path", default=None,
                          help="persist/re-attach layer files under this directory")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    workload = mediated_layers(
        layers=args.layers,
        width=args.width,
        fan_out=args.fan_out,
        seeds=args.seeds,
        rng=args.rng,
        dangling_rate=args.dangling_rate,
        storage=args.storage,
        storage_path=args.storage_path,
        shards=args.shards,
    )
    config = EngineConfig(
        storage=args.storage,
        storage_path=args.storage_path,
        shards=args.shards,
        shard_mode=args.shard_mode,
        rpc_timeout=args.rpc_timeout,
        worker_restarts=args.worker_restarts,
    )
    session = workload.open_session(config=config)
    server = ServingServer(
        session, host=args.host, port=args.port, verbose=args.verbose
    )
    print(json.dumps({
        "url": server.url,
        "host": server.host,
        "port": server.port,
        "pid": os.getpid(),
        "shards": args.shards,
        "shard_mode": args.shard_mode,
    }), flush=True)

    def _stop(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _stop)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
