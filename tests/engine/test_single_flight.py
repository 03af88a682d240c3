"""Single-flight coalescing of identical in-flight traversals.

The thundering-herd regression: N concurrent identical cold queries
must perform exactly one traversal — one ``graph_misses`` bump — with
every other request either coalesced onto the in-flight build or
served from the cache it populated. A gated query stub makes the
overlap deterministic: the leader's traversal blocks until the test
has observed every follower waiting on it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import RankingEngine
from repro.errors import EmptyAnswerError, QueryError
from repro.integration.query import ExploratoryQuery
from repro.workloads import mediated_layers, run_threaded_clients


class _GatedQuery:
    """Wraps a real ExploratoryQuery; ``expand_with`` (every cached
    build's traversal) signals ``started``, then blocks until
    ``release`` — so the test controls exactly how long the traversal
    stays in flight."""

    def __init__(self, inner, fail=None):
        self.inner = inner
        self.started = threading.Event()
        self.release = threading.Event()
        self.fail = fail
        self.calls = 0
        self._lock = threading.Lock()

    def __getattr__(self, name):
        # the traversal key and output sets are the wrapped query's
        return getattr(self.inner, name)

    def expand_with(self, mediator, graph_builder, **kwargs):
        with self._lock:
            self.calls += 1
        self.started.set()
        assert self.release.wait(10), "test never released the traversal"
        if self.fail is not None:
            raise self.fail
        return self.inner.expand_with(mediator, graph_builder, **kwargs)


def _await_counter(read, target, timeout=10.0):
    deadline = time.monotonic() + timeout
    while read() < target:
        assert time.monotonic() < deadline, "counter never reached target"
        time.sleep(0.001)


def _herd(engine, query, n):
    """Start a leader, wait for its traversal to be in flight, then
    release n-1 followers and hold the build until all have coalesced."""
    results = [None] * n
    errors = [None] * n

    def worker(index):
        try:
            results[index] = engine.execute(query)
        except BaseException as exc:  # noqa: BLE001 - recorded for assertions
            errors[index] = exc

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True) for i in range(n)
    ]
    threads[0].start()
    assert query.started.wait(10)
    for thread in threads[1:]:
        thread.start()
    # followers bump coalesced_queries *before* waiting on the flight,
    # so this poll guarantees all n-1 joined the in-flight build
    _await_counter(lambda: engine.stats.coalesced_queries, n - 1)
    query.release.set()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    return results, errors


class TestEngineSingleFlight:
    def test_identical_cold_queries_share_one_traversal(self):
        workload = mediated_layers(layers=3, width=12, fan_out=3, rng=5)
        engine = RankingEngine(mediator=workload.mediator)
        query = _GatedQuery(workload.query)
        n = 8

        results, errors = _herd(engine, query, n)

        assert all(error is None for error in errors)
        assert query.calls == 1
        assert engine.stats.graph_misses == 1
        assert engine.stats.coalesced_queries == n - 1
        # every waiter got the leader's graph, not a copy
        assert all(qg is results[0] for qg in results)
        assert engine._inflight._flights == {}

    def test_failed_traversal_propagates_to_every_waiter(self):
        workload = mediated_layers(layers=3, width=12, fan_out=3, rng=5)
        engine = RankingEngine(mediator=workload.mediator)
        boom = QueryError("traversal exploded")
        query = _GatedQuery(workload.query, fail=boom)
        n = 6

        results, errors = _herd(engine, query, n)

        assert all(result is None for result in results)
        assert all(error is boom for error in errors)
        # the failed flight is gone: nothing cached, nothing pending
        assert engine._inflight._flights == {}
        assert engine.stats.graph_misses == 1

        # the next identical request retries cold instead of awaiting a
        # dead flight or inheriting the stale error
        query.fail = None
        qg = engine.execute(query)
        assert qg is not None
        assert query.calls == 2
        assert engine.stats.graph_misses == 2


    def test_a_leader_without_answers_does_not_fail_its_follower(self):
        """Output sets only pick answers among the records a traversal
        reaches: a follower that asks for other output sets joins the
        leader's traversal, and each selects its own answers, so the
        leader's empty-answer error stays the leader's."""
        workload = mediated_layers(layers=3, width=12, fan_out=3, rng=5)
        engine = RankingEngine(mediator=workload.mediator)
        base = workload.query
        leader_query = _GatedQuery(
            ExploratoryQuery(base.entity_set, base.attribute, base.value, ["E9"])
        )
        follower_query = ExploratoryQuery(
            base.entity_set, base.attribute, base.value, ["E2"]
        )
        outcomes = {}

        def run(name, query):
            try:
                outcomes[name] = engine.execute(query)
            except EmptyAnswerError as exc:
                outcomes[name] = exc

        leader = threading.Thread(target=run, args=("leader", leader_query), daemon=True)
        follower = threading.Thread(target=run, args=("follower", follower_query), daemon=True)
        leader.start()
        assert leader_query.started.wait(10)
        follower.start()
        _await_counter(lambda: engine.stats.coalesced_queries, 1)
        leader_query.release.set()
        for thread in (leader, follower):
            thread.join(10)
            assert not thread.is_alive()

        assert engine.stats.graph_misses == 1 and leader_query.calls == 1
        assert isinstance(outcomes["leader"], EmptyAnswerError)
        assert outcomes["leader"].kind == "no-answers"
        expected, _ = follower_query.execute(workload.mediator)
        assert outcomes["follower"].targets == expected.targets


class TestSessionThunderingHerd:
    def test_concurrent_identical_cold_specs_traverse_once(self, monkeypatch):
        """The satellite regression at the session surface: N threads,
        one identical cold spec each, exactly one traversal."""
        workload = mediated_layers(layers=3, width=16, fan_out=3, rng=11)
        calls = []
        calls_lock = threading.Lock()
        real = ExploratoryQuery.expand_with

        def counted(self, mediator, builder, **kwargs):
            with calls_lock:
                calls.append(self.signature)
            # widen the in-flight window so the herd genuinely overlaps
            time.sleep(0.05)
            return real(self, mediator, builder, **kwargs)

        # every cold build funnels through expand_with, so this counts
        # traversals exactly
        monkeypatch.setattr(ExploratoryQuery, "expand_with", counted)

        n = 12
        with workload.open_session() as session:
            spec = workload.spec(method="in_edge")
            report = run_threaded_clients(session, [[spec]] * n)

        assert report.errors == 0
        assert report.requests == n
        assert len(calls) == 1
        delta = report.stats_delta
        assert delta.graph_misses == 1
        # every request accounted for: one miss, the rest coalesced
        # waits or cache hits depending on arrival timing
        assert (
            delta.graph_misses + delta.graph_hits + delta.coalesced_queries == n
        )
        scores = [dict(result.scores) for result in report.results]
        assert all(s == scores[0] for s in scores)
