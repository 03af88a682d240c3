"""The engine's memo of reduced, compiled graphs for Monte Carlo scoring.

The reducing Monte Carlo reliability strategies (``auto`` always;
``mc``/``naive-mc`` unless ``reduce=False``) sample the §3.1-reduced
graph. The engine builds that graph's CSR form once per live
``QueryGraph`` and reuses it for every seed. These tests pin that the
memo changes cost only: served answers equal the free
``rank(..., backend="compiled")`` bit for bit in every execution mode,
reduction runs once per live graph, a repaired graph is reduced afresh,
and ``invalidate()`` drops the memo.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, RankingOptions
from repro.core import kernels
from repro.core.ranker import rank
from repro.engine import RankingEngine
from repro.serving.engine import live_worker_processes
from repro.workloads import mediated_layers

_SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture
def workload():
    generated = mediated_layers(layers=3, width=16, fan_out=3, rng=11, shards=2)
    yield generated
    generated.close()


@pytest.fixture
def reductions(monkeypatch):
    """Counts calls to ``reduce_graph`` on the compiled scoring path."""
    calls = []
    original = kernels.reduce_graph

    def counting(qg):
        calls.append(qg)
        return original(qg)

    monkeypatch.setattr(kernels, "reduce_graph", counting)
    return calls


def _spec(workload, seed, strategy="auto"):
    return workload.spec(
        method="reliability",
        options=RankingOptions(strategy=strategy, trials=200),
        seed=seed,
    )


def _free(qg, spec):
    """The free compiled-backend ranking the engine must reproduce."""
    kwargs = spec.options.to_kwargs("reliability", spec.seed)
    return rank(qg, "reliability", backend="compiled", **kwargs).scores


def _sharded_reference(session, spec):
    """Free rankings of each shard's graph, merged by ownership — what
    the scatter/gather merge of memo-served shard scores must equal."""
    router = session.router
    query = spec.to_exploratory()
    merged = {}
    for shard, engine in enumerate(session.sharded_engine.engines):
        qg = engine.execute(query)
        scores = _free(qg, spec)
        for node in qg.targets:
            payload = qg.graph.data(node)
            if router.owner(payload.entity_set, payload.key) == shard:
                merged[node] = scores[node]
    return merged


def _bits(scores):
    return [(node, value.hex()) for node, value in scores.items()]


class TestServedEqualsFreeRank:
    @pytest.mark.parametrize("strategy", ["auto", "mc", "naive-mc"])
    def test_single(self, workload, strategy):
        with workload.open_session(sharded=False) as session:
            for seed in _SEEDS:
                spec = _spec(workload, seed, strategy)
                served = session.execute(spec).scores
                qg = session.engine.execute(spec.to_exploratory())
                assert _bits(served) == _bits(_free(qg, spec))

    def test_thread_and_process(self, workload):
        specs = [_spec(workload, seed) for seed in _SEEDS]
        with workload.open_session(config=EngineConfig(shards=2)) as session:
            thread = [dict(session.execute(spec).scores) for spec in specs]
            expected = [_sharded_reference(session, spec) for spec in specs]
        for served, reference in zip(thread, expected):
            assert sorted(_bits(served)) == sorted(_bits(reference))
        config = EngineConfig(shards=2, shard_mode="process", rpc_timeout=10.0)
        try:
            with workload.open_session(config=config) as session:
                process = [dict(session.execute(spec).scores) for spec in specs]
        finally:
            assert live_worker_processes() == []
        for served, reference in zip(process, expected):
            assert sorted(_bits(served)) == sorted(_bits(reference))


class TestMemoLifetime:
    def test_one_reduction_per_live_graph_across_seeds(self, workload, reductions):
        engine = RankingEngine(mediator=workload.mediator)
        qg = engine.execute(workload.query)
        for seed in _SEEDS:
            served = engine.rank(qg, "reliability", trials=100, rng=seed).scores
            expected = rank(
                qg, "reliability", backend="compiled", trials=100, rng=seed
            ).scores
            assert _bits(served) == _bits(expected)
        # the free rank() calls reduce every time; the engine once
        assert len(reductions) == 1 + len(_SEEDS)
        assert engine.stats.score_misses == len(_SEEDS)

    def test_non_reducing_requests_bypass_the_memo(self, workload, reductions):
        engine = RankingEngine(mediator=workload.mediator)
        qg = engine.execute(workload.query)
        engine.rank(qg, "reliability", strategy="mc", reduce=False, trials=50, rng=1)
        engine.rank(qg, "reliability", strategy="closed")
        engine.rank(qg, "propagation")
        assert reductions == []
        assert len(engine._reduced) == 0

    def test_repaired_graph_gets_a_fresh_reduction(self, workload, reductions):
        engine = RankingEngine(mediator=workload.mediator)
        before = engine.execute(workload.query)
        engine.rank(before, "reliability", trials=100, rng=7)
        workload.refresh_entity_weights(count=8, rng=3)
        after = engine.execute(workload.query)
        assert engine.stats.graph_repairs == 1
        assert after is not before
        served = engine.rank(after, "reliability", trials=100, rng=7).scores
        assert reductions == [before, after]
        expected = rank(
            after, "reliability", backend="compiled", trials=100, rng=7
        ).scores
        assert _bits(served) == _bits(expected)

    def test_invalidate_drops_the_memo(self, workload, reductions):
        engine = RankingEngine(mediator=workload.mediator)
        qg = engine.execute(workload.query)
        engine.rank(qg, "reliability", trials=50, rng=1)
        engine.invalidate(qg)
        assert qg not in engine._reduced
        engine.rank(qg, "reliability", trials=50, rng=2)
        assert len(reductions) == 2
        engine.invalidate()
        assert len(engine._reduced) == 0
        engine.rank(qg, "reliability", trials=50, rng=3)
        assert len(reductions) == 3
