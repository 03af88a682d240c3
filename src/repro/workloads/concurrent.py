"""A concurrent-client driver for serving-style load.

Real serving traffic is not a batch: it is N independent clients, each
issuing its own stream of requests, with duplicates arriving *while*
an identical request is still executing — exactly the shape that
exercises single-flight coalescing and bounded admission. This module
generates that shape deterministically (:func:`client_streams`) and
runs it as C threads over one :class:`~repro.api.Session`
(:func:`run_threaded_clients`). The run's :class:`ConcurrentRunReport`
carries throughput and the engine-counter delta, so callers can assert
coalescing behavior ("N identical cold requests, one traversal").
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.api.result import ResultSet
from repro.api.spec import QuerySpec
from repro.engine.ranking import EngineStats
from repro.errors import ReproError

__all__ = [
    "ConcurrentRunReport",
    "client_streams",
    "run_threaded_clients",
]


def client_streams(
    specs: Sequence[QuerySpec],
    clients: int,
    requests_per_client: int,
) -> List[List[QuerySpec]]:
    """Deterministic per-client request streams over a spec pool.

    Client ``c`` issues ``specs[(c + i * clients) % len(specs)]`` as
    its ``i``-th request — every client walks the whole pool at a
    different phase, so at any instant several clients are asking for
    the *same* spec (the coalescing opportunity) while the pool as a
    whole still covers distinct traversals (the parallelism
    opportunity). No randomness: the same inputs always produce the
    same streams.
    """
    if not specs:
        raise ValueError("specs must be non-empty")
    if clients < 1 or requests_per_client < 1:
        raise ValueError("clients and requests_per_client must be >= 1")
    return [
        [specs[(c + i * clients) % len(specs)] for i in range(requests_per_client)]
        for c in range(clients)
    ]


@dataclass
class ConcurrentRunReport:
    """What a concurrent-client run did and what the engine saw."""

    clients: int
    requests: int
    errors: int
    seconds: float
    #: engine-counter delta over the run (after minus before)
    stats_delta: EngineStats
    #: per-request results in (client, request) order; errors are None
    results: List[Optional[ResultSet]] = field(repr=False, default_factory=list)

    @property
    def throughput(self) -> float:
        """Completed requests per second (0.0 for an instant run)."""
        if self.seconds <= 0:
            return 0.0
        return self.requests / self.seconds

    def as_dict(self) -> dict:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "errors": self.errors,
            "seconds": self.seconds,
            "throughput": self.throughput,
            "stats_delta": self.stats_delta.as_dict(),
        }


def _stats_delta(before: EngineStats, after: EngineStats) -> EngineStats:
    import dataclasses

    return EngineStats(**{
        f.name: getattr(after, f.name) - getattr(before, f.name)
        for f in dataclasses.fields(EngineStats)
    })


def run_threaded_clients(
    session,
    streams: Sequence[Sequence[QuerySpec]],
    return_errors: bool = True,
) -> ConcurrentRunReport:
    """Run one thread per stream against a synchronous
    :class:`~repro.api.Session`. A barrier releases every client at
    once, so the first wave of requests is maximally concurrent — the
    thundering-herd shape the session's single-flight must absorb."""
    per_client: List[List[Optional[ResultSet]]] = [[] for _ in streams]
    failures: List[BaseException] = []
    barrier = threading.Barrier(len(streams))

    def _client(index: int, stream: Sequence[QuerySpec]) -> None:
        barrier.wait()
        for spec in stream:
            try:
                per_client[index].append(session.execute(spec))
            except ReproError as exc:
                if not return_errors:
                    failures.append(exc)
                    return
                per_client[index].append(None)

    threads = [
        threading.Thread(target=_client, args=(i, stream), daemon=True)
        for i, stream in enumerate(streams)
    ]
    before = session.stats_snapshot()
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - started
    after = session.stats_snapshot()
    if failures:
        raise failures[0]
    results = [outcome for stream in per_client for outcome in stream]
    return ConcurrentRunReport(
        clients=len(streams),
        requests=len(results),
        errors=sum(1 for outcome in results if outcome is None),
        seconds=seconds,
        stats_delta=_stats_delta(before, after),
        results=results,
    )
