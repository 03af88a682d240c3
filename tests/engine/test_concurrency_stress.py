"""Engine cache race audit: execute / invalidate / stats under threads.

A deliberately hostile interleaving — executor threads hammering a
small spec pool while an invalidator drops caches mid-flight and a
reader snapshots counters — with tiny cache caps so LRU eviction runs
constantly. The assertions are the invariants the engine lock is
supposed to guarantee:

* cache sizes never exceed their caps, and no in-flight entry leaks;
* counters only grow (snapshots are monotonic, reader-side);
* exactly one of ``graph_misses`` / ``graph_hits`` /
  ``graph_repairs`` / ``coalesced_queries`` is bumped per execute, so
  their sum equals the number of execute calls made.

CI runs this as a tier-2 job; it is quick enough for the default
suite too.
"""

from __future__ import annotations

import dataclasses
import threading

from repro.engine import RankingEngine
from repro.engine.ranking import EngineStats
from repro.integration import ExploratoryQuery
from repro.workloads import mediated_layers

_THREADS = 8
_ITERATIONS = 60
_METHODS = ("in_edge", "path_count", "propagation")


def _counters(stats: EngineStats) -> dict:
    return {f.name: getattr(stats, f.name) for f in dataclasses.fields(EngineStats)}


def test_execute_invalidate_stats_race():
    workload = mediated_layers(layers=3, width=24, fan_out=3, rng=9)
    engine = RankingEngine(
        mediator=workload.mediator,
        max_cached_graphs=4,
        max_cached_scores=8,
    )
    queries = [
        ExploratoryQuery("E0", "id", f"E0:{i}", outputs=("E1", "E2"))
        for i in range(6)
    ]

    stop = threading.Event()
    barrier = threading.Barrier(_THREADS + 2)
    errors = []
    executes = [0] * _THREADS

    def executor(index):
        try:
            barrier.wait()
            for i in range(_ITERATIONS):
                query = queries[(index + i) % len(queries)]
                qg = engine.execute(query)
                executes[index] += 1
                engine.rank(qg, _METHODS[i % len(_METHODS)])
        except BaseException as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)

    def invalidator():
        try:
            barrier.wait()
            toggle = 0
            while not stop.is_set():
                engine.invalidate()
                toggle += 1
                stop.wait(0.001 * (toggle % 3 + 1))
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    snapshots = []

    def reader():
        try:
            barrier.wait()
            while not stop.is_set():
                snapshots.append(engine.stats_snapshot())
                stop.wait(0.0005)
            snapshots.append(engine.stats_snapshot())
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=executor, args=(i,), daemon=True)
        for i in range(_THREADS)
    ]
    threads.append(threading.Thread(target=invalidator, daemon=True))
    threads.append(threading.Thread(target=reader, daemon=True))
    for thread in threads:
        thread.start()
    for thread in threads[:_THREADS]:
        thread.join(60)
        assert not thread.is_alive(), "executor thread hung"
    stop.set()
    for thread in threads[_THREADS:]:
        thread.join(10)
        assert not thread.is_alive()

    assert errors == []

    # cache invariants: caps respected, nothing left in flight
    assert len(engine._graphs) <= engine.max_cached_graphs
    assert len(engine._scores) <= engine.max_cached_scores
    assert engine._inflight._flights == {}

    # counters only ever grow — any torn/lost update under the lock
    # would show up as a dip between consecutive snapshots
    for before, after in zip(snapshots, snapshots[1:]):
        first, second = _counters(before), _counters(after)
        for name, value in first.items():
            assert second[name] >= value, f"{name} decreased between snapshots"

    # exact accounting: every execute bumped exactly one graph counter
    stats = engine.stats_snapshot()
    served = (
        stats.graph_misses
        + stats.graph_hits
        + stats.graph_repairs
        + stats.coalesced_queries
    )
    assert served == sum(executes) == _THREADS * _ITERATIONS
    # no source mutated during the run, so nothing was repairable
    assert stats.graph_repairs == 0
    # scoring stayed consistent too: every rank call was a hit or miss
    assert stats.score_hits + stats.score_misses == sum(executes)
