"""One batch path: ``execute_many`` runs through ``execute``'s flight,
and output sets share a traversal in the engine's query cache.

Output sets only pick answers among the records a traversal reaches,
so each shard engine keys its query cache by the traversal and builds
it once, whichever front door asks and whichever output sets it asks
for: ``execute`` and ``execute_many`` alike, in thread and process
shards alike. A batch joins the same spec flights and settled answers
as ``execute``, so a warm spec costs a batch no gather and a cold one
shared with concurrent ``execute`` callers is ranked once.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.engine.ranking as ranking
from repro.api import EngineConfig
from repro.workloads import mediated_layers

_CONFIGS = {
    "single": None,
    "thread": EngineConfig(shards=2),
    "process": EngineConfig(shards=2, shard_mode="process", rpc_timeout=10.0),
}


@pytest.fixture(scope="module")
def workload():
    generated = mediated_layers(layers=3, width=16, fan_out=3, rng=11, shards=2)
    yield generated
    generated.close()


def _open(workload, mode):
    if mode == "single":
        return workload.open_session(sharded=False)
    return workload.open_session(config=_CONFIGS[mode])


def _misses(session):
    """Cold builds per shard (the one shard of an unsharded session)."""
    shards = session.shard_stats() or [session.stats_snapshot()]
    return [stats.graph_misses for stats in shards]


def _siblings(workload, method="in_edge"):
    """Specs that differ only in their output sets."""
    return [
        workload.spec(outputs=outputs, method=method)
        for outputs in (("E1",), ("E2",), ("E1", "E2"))
    ]


@pytest.mark.parametrize("mode", sorted(_CONFIGS))
class TestOutputSetsShareOneBuild:
    def test_execute_builds_once_per_shard(self, workload, mode):
        specs = _siblings(workload)
        with _open(workload, mode) as session:
            served = [session.execute(spec).to_dict() for spec in specs]
            misses = _misses(session)
        assert misses == [1] * len(misses)
        for spec, answer in zip(specs, served):
            with _open(workload, "single") as alone:
                assert answer == alone.execute(spec).to_dict()

    def test_execute_many_builds_once_per_shard(self, workload, mode):
        specs = _siblings(workload) + _siblings(workload, method="path_count")
        with _open(workload, mode) as session:
            batched = [result.to_dict() for result in session.execute_many(specs)]
            misses = _misses(session)
        assert misses == [1] * len(misses)
        with _open(workload, "single") as alone:
            assert batched == [alone.execute(spec).to_dict() for spec in specs]


@pytest.mark.parametrize("mode", ["single", "thread"])
def test_a_settled_answer_serves_the_batch_without_a_gather(workload, mode, monkeypatch):
    spec = workload.spec(method="path_count")
    with _open(workload, mode) as session:
        executed = session.execute(spec)
        runs = []
        run = session._scatter._run
        monkeypatch.setattr(session._scatter, "_run", lambda *a: runs.append(a) or run(*a))
        (batched,) = session.execute_many([spec])
        assert runs == []
        assert batched is not executed and batched.to_dict() == executed.to_dict()


class _HeldKernel:
    """Counts ``repro.engine.ranking.rank`` calls; each waits for
    ``release`` before it scores."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.release = threading.Event()
        self._lock = threading.Lock()
        self._real = ranking.rank
        monkeypatch.setattr(ranking, "rank", self)

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.calls += 1
        assert self.release.wait(30), "the test never released the kernel"
        return self._real(*args, **kwargs)


def test_a_herd_of_execute_and_execute_many_ranks_once(workload, monkeypatch):
    """Both front doors join one spec flight: half the herd calls
    ``execute``, half ``execute_many``, and the kernel runs once."""
    herd = 8
    spec = workload.spec(method="propagation")
    kernel = _HeldKernel(monkeypatch)
    results = [None] * herd
    with _open(workload, "single") as session:

        def client(index):
            if index % 2:
                results[index] = session.execute_many([spec, spec])[0]
            else:
                results[index] = session.execute(spec)

        threads = [threading.Thread(target=client, args=(i,), daemon=True) for i in range(herd)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10
        while session.stats_snapshot().coalesced_queries < herd - 1:
            assert time.monotonic() < deadline, "the herd never joined one flight"
            time.sleep(0.001)
        kernel.release.set()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    assert kernel.calls == 1
    assert all(result is results[0] for result in results)
