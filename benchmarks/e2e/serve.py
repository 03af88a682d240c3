"""Serve one generated workload over HTTP for the end-to-end benchmark.

    PYTHONPATH=src python benchmarks/e2e/serve.py --workload NAME --seed N \\
        [--quick] --trace-out FILE

Generates the workload's inputs (``shapes.py``), opens a
:class:`~repro.api.Session` with bounded admission
(``EngineConfig(max_queue_depth=32)``) in the workload's shard mode and
serves it with :class:`~repro.serving.server.ServingServer` on an
ephemeral port. Once ready it prints one JSON line ``{"url", "pid"}``.
On ``refresh-thread`` a writer thread starts at the same moment.

Commands arrive on stdin, one per line; each is answered with one JSON
line on stdout:

``trace``
    patch the layer spans in (``trace.py``): ``{"tracing": true}``.
``finish``
    stop the writer and answer with its batch log and, for every hot
    spec, the answer of a cold single-engine session over the mutated
    full mediator: ``{"writes": [[start, end], ...], "final": [...]}``.

SIGTERM (or stdin closing) stops the server, writes the recorded spans
to ``--trace-out`` as JSONL when tracing was on, and exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from typing import List, Optional, Tuple

import shapes
import trace
from repro.serving.server import ServingServer


class Writer:
    """The ``refresh-thread`` writer: one batch every
    ``shapes.WRITE_INTERVAL_S``, each one ``Table.update_many`` on the
    full answer table and one on the owning shard's table."""

    def __init__(self, inputs, seed: int) -> None:
        self._seed = seed
        self._ids = shapes.answer_ids_by_shard(inputs)
        self._full = inputs.mediator.entity_plan(inputs.entity_sets[-1]).table
        self._full_rows = shapes.row_ids_by_record(self._full)
        self._shards = [db.table("ents") for db in inputs.shard_databases]
        self._shard_rows = [shapes.row_ids_by_record(t) for t in self._shards]
        #: (start, end) of every committed batch, batch order
        self.log: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-writer", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=30)

    def _run(self) -> None:
        batch = 0
        due = time.monotonic()
        while not self._stop.wait(max(0.0, due - time.monotonic())):
            shard, values = shapes.write_batch(self._seed, batch, self._ids)
            start = time.monotonic()
            self._full.update_many(
                {self._full_rows[record]: {"w": w} for record, w in values.items()}
            )
            self._shards[shard].update_many(
                {self._shard_rows[shard][record]: {"w": w} for record, w in values.items()}
            )
            self.log.append((start, time.monotonic()))
            batch += 1
            due += shapes.WRITE_INTERVAL_S


def _reply(record: dict) -> None:
    print(json.dumps(record), flush=True)


def _final_answers(workload: shapes.Workload, inputs, quick: bool) -> list:
    """Every hot spec answered by a cold single-engine session over the
    (mutated) full mediator, as the JSON the server would send."""
    final = []
    with workload.open_reference(inputs) as reference:
        for body in workload.hot_bodies(workload.shape(quick)):
            spec, limit = shapes.split_body(body)
            expected = shapes.as_sent(reference.execute(spec).to_dict(limit))
            final.append({"body": body, "expected": expected})
    return final


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(shapes.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)

    def _terminate(signum: int, frame: object) -> None:
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    workload = shapes.WORKLOADS[args.workload]
    inputs = workload.generate(args.seed, args.quick)
    recorder = trace.Recorder()
    tracing = False
    writer: Optional[Writer] = None
    server = ServingServer(workload.open_served(inputs))
    try:
        server.start()
        if workload.writes:
            writer = Writer(inputs, args.seed)
            writer.start()
        _reply({"url": server.url, "host": server.host, "port": server.port, "pid": os.getpid()})
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                recorder.install()
                tracing = True
                _reply({"tracing": True})
            elif command == "finish":
                record: dict = {"writes": [], "final": []}
                if writer is not None:
                    writer.stop()
                    record = {
                        "writes": writer.log,
                        "final": _final_answers(workload, inputs, args.quick),
                    }
                _reply(record)
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        if writer is not None:
            writer.stop()
        if tracing:
            recorder.dump(args.trace_out)
        server.close()
        inputs.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
