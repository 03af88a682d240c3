"""Thread and process shards behind the one scatter/gather core.

Every test here runs once per shard mode against the same small
workload, so a behaviour of :class:`~repro.api.ShardedResultSet`, of
``gather`` or of the shard stats surface that differs between the two
modes shows up as a single failing parameter. The deterministic rankers
are also pinned against the unsharded engine; seeded Monte Carlo is
compared across the two modes only (each shard samples its own compiled
graph, so its streams differ from the single engine's).
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, RankingOptions, ShardedResultSet
from repro.engine.sharded import GatherResult
from repro.errors import GraphError
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
