"""Thread and process shards behind the one scatter/gather core.

Every test here runs once per shard mode against the same small
workload, so a behaviour of :class:`~repro.api.ShardedResultSet`, of
``gather`` or of the shard stats surface that differs between the two
modes shows up as a single failing parameter. The deterministic rankers
are also pinned against the unsharded engine; seeded Monte Carlo is
compared across the two modes only (each shard samples its own compiled
graph, so its streams differ from the single engine's). The last mode,
one shard that owns every answer, is how an unsharded session runs, so
it must be indistinguishable from the default session, seeded Monte
Carlo included.
"""

from __future__ import annotations

import sys

import pytest

from repro.api import (
    EngineConfig,
    QuerySpec,
    RankingOptions,
    Session,
    ShardedResultSet,
    open_session,
)
from repro.engine.sharded import GatherResult, HashPartitioner, ShardRouter
from repro.errors import GraphError
from repro.integration.mediator import Mediator
from repro.integration.query import QueryGraph
from repro.workloads import mediated_layers

MODES = ("thread", "process")

DETERMINISTIC = {
    "in_edge": dict(method="in_edge"),
    "path_count": dict(method="path_count"),
    "propagation": dict(method="propagation"),
    "reliability-closed": dict(
        method="reliability", options=RankingOptions(strategy="closed")
    ),
}


@pytest.fixture(scope="module")
def workload():
    generated = mediated_layers(layers=3, width=16, fan_out=3, rng=11, shards=2)
    yield generated
    generated.close()


@pytest.fixture(scope="module")
def sessions(workload):
    """One unsharded and one session per shard mode, shared by the
    module (nothing here writes to the sources)."""
    opened = {
        "single": workload.open_session(sharded=False),
        "thread": workload.open_session(config=EngineConfig(shards=2)),
        "process": workload.open_session(
            config=EngineConfig(shards=2, shard_mode="process", rpc_timeout=10.0)
        ),
    }
    yield opened
    for session in opened.values():
        session.close()


@pytest.fixture(params=MODES)
def mode(request):
    return request.param


@pytest.fixture
def session(sessions, mode):
    return sessions[mode]


@pytest.fixture
def spec(workload):
    return workload.spec(method="in_edge")


def _paths(paths):
    return [(path.nodes, path.probability) for path in paths]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(DETERMINISTIC))
def test_deterministic_results_equal_the_single_engine(workload, sessions, mode, name):
    spec = workload.spec(**DETERMINISTIC[name])
    single = sessions["single"].execute(spec)
    sharded = sessions[mode].execute(spec)
    assert isinstance(sharded, ShardedResultSet)
    # every entity record (rank, interval, entity set, key, label and
    # bit-identical score) and the tie structure
    assert sharded.to_dict(limit=len(single)) == single.to_dict(limit=len(single))
    assert [[e.node for e in group] for group in sharded.tie_groups()] == [
        [e.node for e in group] for group in single.tie_groups()
    ]


def test_seeded_monte_carlo_is_mode_independent(workload, sessions):
    spec = workload.spec(
        method="reliability", options=RankingOptions(strategy="mc", trials=50), seed=7
    )
    thread = sessions["thread"].execute(spec)
    process = sessions["process"].execute(spec)
    assert process.scores == thread.scores
    assert process.to_dict(limit=len(thread)) == thread.to_dict(limit=len(thread))


class TestGatheredResult:
    def test_gather_takes_the_query_spec(self, session, spec):
        engine = session.sharded_engine or session.process_engine
        gathered = engine.gather(spec)
        assert isinstance(gathered, GatherResult)
        assert gathered.method == "in_edge"
        assert gathered.scores == session.execute(spec).scores
        assert set(gathered.payloads) == set(gathered.scores)

    def test_owner_shards_follow_the_router(self, session, spec):
        result = session.execute(spec)
        owners = result.owner_shards
        assert set(owners) == set(result.scores)
        for entity in result:
            assert owners[entity.node] == session.router.owner(
                entity.entity_set, entity.key
            )

    def test_both_shards_own_answers(self, session, spec):
        assert set(session.execute(spec).owner_shards.values()) == {0, 1}

    def test_entity_records_come_from_the_owners_payloads(self, sessions, session, spec):
        single = {e.node: e for e in sessions["single"].execute(spec)}
        for entity in session.execute(spec):
            expected = single[entity.node]
            assert (entity.entity_set, entity.key, entity.label) == (
                expected.entity_set, expected.key, expected.label
            )

    def test_provenance_matches_the_single_engine(self, sessions, session, spec):
        single = sessions["single"].execute(spec)
        sharded = session.execute(spec)
        for entity in single.top(4):
            assert _paths(sharded.provenance(entity.node, top=5)) == _paths(
                single.provenance(entity.node, top=5)
            )

    def test_explain_matches_the_single_engine(self, sessions, session, spec):
        single = sessions["single"].execute(spec)
        sharded = session.execute(spec)
        for entity in single.top(4):
            assert sharded.explain(entity.node) == single.explain(entity.node)

    def test_explain_accepts_a_ranked_entity(self, session, spec):
        result = session.execute(spec)
        best = result.top(1)[0]
        assert result.explain(best) == result.explain(best.node)
        assert _paths(result.provenance(best)) == _paths(result.provenance(best.node))

    def test_foreign_node_is_rejected(self, session, spec):
        result = session.execute(spec)
        with pytest.raises(GraphError, match="not in this result set"):
            result.provenance(("E2", "no-such-key"))
        with pytest.raises(GraphError, match="not in this result set"):
            result.explain(("E2", "no-such-key"))

    def test_graph_error_names_both_remedies(self, session, spec):
        result = session.execute(spec)
        with pytest.raises(GraphError, match="shard_graphs") as raised:
            result.graph
        assert "worker processes" in str(raised.value)

    def test_shard_graphs_live_where_the_shards_run(self, session, mode, spec):
        graphs = session.execute(spec).shard_graphs
        if mode == "thread":
            assert len(graphs) == 2
            assert all(isinstance(graph, QueryGraph) for graph in graphs)
        else:
            assert graphs == []

    def test_execute_many_matches_execute(self, workload, session):
        batch = workload.serving_batch(methods=("in_edge", "path_count"))
        batched = session.execute_many(batch)
        assert [r.scores for r in batched] == [session.execute(s).scores for s in batch]


class TestFastPath:
    def test_a_warm_spec_is_settled_on_thread_shards_only(
        self, session, mode, spec, monkeypatch
    ):
        executed = session.execute(spec)
        gathers = []
        gather = session._gather
        monkeypatch.setattr(session, "_gather", lambda s: gathers.append(s) or gather(s))
        before = session.shard_stats()
        served = session.execute(spec)
        after = session.shard_stats()
        assert isinstance(served, ShardedResultSet) and served is not executed
        assert served.to_dict() == executed.to_dict()
        assert served.owner_shards == executed.owner_shards
        # process requests still reach the workers; thread shards answer
        # from the settled answer, counting what a warm gather counts
        assert len(gathers) == (1 if mode == "process" else 0)
        assert [a.graph_hits - b.graph_hits for a, b in zip(after, before)] == [1, 1]
        assert [a.score_hits - b.score_hits for a, b in zip(after, before)] == [1, 1]

    def test_an_invalidated_shard_retires_the_settled_answer(self):
        """After one shard's invalidate(), the next request executes:
        the warm shard counts a hit and the invalidated one a miss."""
        workload = mediated_layers(layers=3, width=16, fan_out=3, rng=11, shards=2)
        spec = workload.spec(method="in_edge")
        with workload.open_session(config=EngineConfig(shards=2)) as session:
            expected = session.execute(spec)
            session.sharded_engine.engines[1].invalidate()
            before = session.shard_stats()
            result = session.execute(spec)
            after = session.shard_stats()
        workload.close()
        assert result.to_dict() == expected.to_dict()
        assert [
            (a.graph_hits - b.graph_hits, a.graph_misses - b.graph_misses)
            for a, b in zip(after, before)
        ] == [(1, 0), (0, 1)]


class TestShardStats:
    def test_session_stats_are_the_sum_of_shard_stats(self, session, spec):
        session.execute(spec)
        per_shard = session.shard_stats()
        total = session.stats_snapshot()
        assert len(per_shard) == 2
        for field in ("graph_hits", "graph_misses", "score_hits", "score_misses",
                      "queries_executed"):
            assert getattr(total, field) == sum(getattr(s, field) for s in per_shard)

    def test_warm_repeat_is_served_from_every_shard_cache(self, session, spec):
        engine = session.sharded_engine or session.process_engine
        engine.gather(spec)
        warm = engine.gather(spec)
        assert warm.graph_cached and warm.score_cached

    def test_reset_stats_zeroes_every_shard(self, session, spec):
        session.execute(spec)
        session.reset_stats()
        assert all(s.queries_executed == 0 for s in session.shard_stats())
        session.execute(spec)
        assert [s.graph_hits for s in session.shard_stats()] == [1, 1]

    def test_repr_names_the_mode(self, session, mode):
        assert f"shards=2 ({mode})" in repr(session)


class TestOneShardRouter:
    """An unsharded session runs as one shard that owns every answer,
    over its own mediator. A session opened on an explicit router of
    that shape must therefore be indistinguishable from the default
    unsharded session, except that its results are gathered ones."""

    SPECS = {
        **DETERMINISTIC,
        "reliability-mc-seeded": dict(
            method="reliability", options=RankingOptions(strategy="mc", trials=50), seed=7
        ),
    }

    @pytest.fixture
    def pair(self, workload):
        """(the default unsharded session, an explicit one-shard one),
        each with cold caches."""
        mediator = workload.mediator
        single = Session(mediator=mediator)
        one_shard = Session(
            mediator=mediator, router=ShardRouter([mediator], HashPartitioner(1))
        )
        yield single, one_shard
        single.close()
        one_shard.close()

    @staticmethod
    def _explained(session, spec):
        data = session.explain(spec).as_dict()
        del data["build_seconds"], data["rank_seconds"]
        return data

    def test_unsharded_surface(self, workload, pair):
        single, one_shard = pair
        assert (single.router, single.sharded, single.shard_stats()) == (None, False, [])
        assert single.sharded_engine is None and single.process_engine is None
        result = single.execute(workload.spec(method="in_edge"))
        assert isinstance(result.graph, QueryGraph)
        assert one_shard.sharded and len(one_shard.shard_stats()) == 1
        assert "shards=1 (thread)" in repr(single) and "shards=1 (thread)" in repr(one_shard)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_results_and_explanations_are_identical(self, workload, pair, name):
        single, one_shard = pair
        spec = workload.spec(**self.SPECS[name])
        for _ in range(2):  # cold, then warm
            expected = single.execute(spec)
            gathered = one_shard.execute(spec)
            assert isinstance(gathered, ShardedResultSet)
            assert gathered.to_dict(limit=len(expected)) == expected.to_dict(
                limit=len(expected)
            )
            assert gathered.scores == expected.scores
            explained = self._explained(single, spec)
            assert explained["fingerprint"]
            assert self._explained(one_shard, spec) == explained

    def test_a_settled_answer_serves_identically(self, workload, pair):
        single, one_shard = pair
        spec = workload.spec(method="path_count")
        executed = single.execute(spec)
        one_shard.execute(spec)
        served, expected = one_shard.execute(spec), single.execute(spec)
        assert expected is not executed and expected.graph is executed.graph
        assert served.to_dict() == expected.to_dict()
        assert one_shard.stats_snapshot() == single.stats_snapshot()

    def test_execute_many_builds_each_traversal_once(self, workload, pair):
        single, one_shard = pair
        batch = [
            workload.spec(outputs=(layer,), method=method)
            for layer in workload.entity_sets[1:]
            for method in ("in_edge", "path_count")
        ]
        expected = single.execute_many(batch)
        gathered = one_shard.execute_many(batch)
        assert [r.to_dict() for r in gathered] == [r.to_dict() for r in expected]
        assert single.stats_snapshot().queries_executed == 1
        assert one_shard.stats_snapshot() == single.stats_snapshot()

    def test_rank_shares_the_execution_caches(self, workload, pair):
        single, _ = pair
        spec = workload.spec(method="in_edge")
        result = single.execute(spec)
        before = single.stats_snapshot()
        single.rank(result.graph, "in_edge")
        after = single.stats_snapshot()
        assert after.score_hits == before.score_hits + 1

    def test_register_adds_the_source_once(self, workload):
        """The one shard's mediator is the session's own, so a
        registration must not be replayed into it a second time."""
        sources = workload.mediator.sources
        unsharded = open_session().register(*sources)
        mediator = Mediator()
        explicit = Session(
            mediator=mediator, router=ShardRouter([mediator], HashPartitioner(1))
        ).register(*sources)
        spec = workload.spec(method="in_edge")
        with workload.open_session(sharded=False) as reference:
            expected = reference.execute(spec).to_dict()
        for session in (unsharded, explicit):
            with session:
                assert len(session.mediator.sources) == len(sources)
                assert session.execute(spec).to_dict() == expected

    def test_serving_counters_are_counted_once(self, workload, pair):
        """Admission and coalescing note their counters on
        ``session.engine``, which is an unsharded session's one shard."""
        single, one_shard = pair
        for session in (single, one_shard):
            session.engine.note_coalesced(2)
            session.engine.note_queued(3)
            session.engine.note_shed(1)
            stats = session.stats_snapshot()
            assert (stats.coalesced_queries, stats.queued_queries, stats.shed_queries) == (
                2, 3, 1
            )
            assert session.stats() == stats


def test_parallel_traversal_groups_match_one_by_one(workload):
    """Traversal groups run on the session's pool while each scatters on
    the shard pool, sharing every shard's caches and the answer-set
    view cache; a lost update would show as a wrong or missing answer."""
    specs = [
        QuerySpec("E0", "id", f"E0:{i}", outputs=outputs, method="in_edge")
        for i in range(8)
        for outputs in (("E1",), ("E2",), ("E1", "E2"))
    ]

    def observed(outcome):
        return str(outcome) if isinstance(outcome, Exception) else outcome.to_dict()

    with workload.open_session(sharded=False) as single:
        expected = [observed(r) for r in single.execute_many(specs, max_workers=1, return_errors=True)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with workload.open_session(config=EngineConfig(shards=2, max_workers=8)) as session:
            for _ in range(3):
                batched = session.execute_many(specs, return_errors=True)
                assert [observed(r) for r in batched] == expected
    finally:
        sys.setswitchinterval(interval)
