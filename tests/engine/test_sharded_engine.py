"""Unit tests for the scatter/gather sharding layer.

The cross-shard *equivalence* guarantee is proven by
``tests/property/test_property_sharded.py``; these tests pin the
mechanics — routing, partitioners, fault paths, per-shard cache
invalidation, stats aggregation and the session wiring.
"""

import threading

import pytest

from repro.api import EngineConfig, Session, open_session
from repro.engine import (
    EngineStats,
    HashPartitioner,
    ShardRouter,
    ShardedEngine,
)
from repro.errors import (
    EmptyAnswerError,
    QueryError,
    RankingError,
    SchemaError,
    StorageError,
)
from repro.integration.partition import partition_mediator, sink_entity_sets
from repro.workloads import mediated_layers


@pytest.fixture
def workload():
    w = mediated_layers(layers=3, width=12, fan_out=2, seeds=2, rng=7, shards=2)
    yield w
    w.close()


def _nodes(results):
    return [(e.node, e.score, e.rank_interval) for e in results]


class TestPartitioners:
    def test_hash_partitioner_is_deterministic_and_total(self):
        p = HashPartitioner(3)
        owners = {p.owner("E1", f"k{i}") for i in range(100)}
        assert owners == {0, 1, 2}
        assert all(
            p.owner("E1", f"k{i}") == HashPartitioner(3).owner("E1", f"k{i}")
            for i in range(100)
        )

    def test_hash_partitioner_rejects_bad_counts(self):
        with pytest.raises(QueryError):
            HashPartitioner(0)

    def test_equal_keys_share_an_owner(self):
        """Every other layer compares keys by ==, so ownership must
        too: 3, 3.0 and True/1 are the same probe everywhere."""
        p = HashPartitioner(7)
        for a, b in [(3, 3.0), (1, True), (0, 0.0), (0, False), (-2, -2.0)]:
            assert p.owner("E", a) == p.owner("E", b), (a, b)
        # probe order must not matter (the memo is equality-keyed)
        q = HashPartitioner(7)
        assert q.owner("E", 3.0) == p.owner("E", 3)
        # ...while genuinely distinct keys may differ ('3' != 3)
        assert isinstance(p.owner("E", "3"), int)


class TestRouter:
    def test_only_sink_sets_are_partitionable(self, workload):
        assert sink_entity_sets(workload.mediator) == {"E2"}
        with pytest.raises(SchemaError, match="outgoing relationship"):
            ShardRouter.partition(workload.mediator, 2, partition_sets=["E1"])

    def test_unknown_partition_set_rejected(self, workload):
        with pytest.raises(QueryError, match="unknown entity set"):
            ShardRouter.partition(workload.mediator, 2, partition_sets=["E9"])

    def test_point_lookup_routes_to_one_shard(self, workload):
        router = workload.router
        key = "E2:3"
        query = workload.query
        # the workload query probes E0.root, not a partitioned key: fan out
        assert router.relevant_shards(query) == [0, 1]
        from repro.integration.query import ExploratoryQuery

        point = ExploratoryQuery("E2", "id", key, outputs=("E2",))
        assert router.relevant_shards(point) == [router.owner("E2", key)]

    def test_mediator_count_must_match_partitioner(self, workload):
        with pytest.raises(QueryError, match="mediators"):
            ShardRouter(workload.router.mediators, HashPartitioner(3))

    def test_empty_schema_sharded_open_is_actionable(self):
        with pytest.raises(QueryError, match="sources first"):
            open_session(shards=2)

    def test_gathered_result_graph_access_is_actionable(self, workload):
        from repro.errors import GraphError

        result = workload.open_session().execute(workload.spec())
        with pytest.raises(GraphError, match="shard_graphs"):
            result.graph
        assert 1 <= len(result.shard_graphs) <= 2

    def test_sinkless_schema_cannot_be_partitioned(self):
        # cyclic workload: every entity set has outgoing bindings, so
        # sharding would silently replicate the full graph per shard
        w = mediated_layers(layers=2, width=6, fan_out=2, rng=3, cyclic=True)
        try:
            with pytest.raises(SchemaError, match="no sink entity sets"):
                ShardRouter.partition(w.mediator, 2)
            with pytest.raises(SchemaError, match="no sink entity sets"):
                Session(mediator=w.mediator, config=EngineConfig(shards=2))
        finally:
            w.close()


class TestFaultPaths:
    def test_empty_shard_partition_is_not_an_error(self):
        # width 1: one answer record, so at least one of 3 shards owns
        # nothing at all — gather must still match the single engine
        w = mediated_layers(layers=2, width=1, fan_out=2, seeds=1, rng=3, shards=3)
        try:
            reference = w.open_session(sharded=False).execute(w.spec())
            sharded = w.open_session().execute(w.spec())
            assert _nodes(sharded) == _nodes(reference)
        finally:
            w.close()

    def test_all_answers_on_one_shard(self, workload):
        # a stub partitioner that gives shard 0 every answer: shard 1
        # owns nothing
        class ShardZero:
            shards = 2

            def owner(self, entity_set, key):
                return 0

        partitioner = ShardZero()
        router = ShardRouter(
            partition_mediator(workload.mediator, 2, partitioner, ["E2"]),
            partitioner,
            {"E2": workload.mediator.entity_plan("E2").key_column},
        )
        session = Session(mediator=workload.mediator, router=router)
        sharded = session.execute(workload.spec(method="in_edge"))
        reference = workload.open_session(sharded=False).execute(
            workload.spec(method="in_edge")
        )
        assert _nodes(sharded) == _nodes(reference)
        assert all(
            router.owner("E2", e.node[1]) == 0 for e in sharded
        )

    def test_shard_raising_mid_gather_is_a_clean_query_error(self, workload):
        session = workload.open_session()
        engine = session.sharded_engine.engines[1]

        def explode(*args, **kwargs):
            raise StorageError("disk vanished")

        engine.execute_with_stats = explode
        with pytest.raises(QueryError, match="shard 1 failed during scatter/gather"):
            session.execute(workload.spec())

    def test_identical_failure_on_every_shard_is_reraised_verbatim(self, workload):
        # one sweep cannot converge: every shard raises the same
        # RankingError, which must surface unwrapped (a query-level
        # error, not shard infrastructure trouble)
        from repro.api import RankingOptions

        session = workload.open_session()
        spec = workload.spec(
            method="diffusion",
            options=RankingOptions(max_iterations=1),
        )
        with pytest.raises(RankingError, match="did not converge"):
            session.execute(spec)

    def test_no_seeds_error_matches_single_engine(self, workload):
        bad = workload.spec().replace(value="nope")
        single = workload.open_session(sharded=False)
        sharded = workload.open_session()
        with pytest.raises(EmptyAnswerError) as reference:
            single.execute(bad)
        with pytest.raises(EmptyAnswerError) as gathered:
            sharded.execute(bad)
        assert str(gathered.value) == str(reference.value)
        assert gathered.value.kind == "no-seeds"

    def test_no_answers_error_matches_single_engine(self):
        # every link dangles: seeds exist but no output record is reached
        w = mediated_layers(
            layers=2, width=6, fan_out=2, seeds=1, rng=5, shards=2,
            dangling_rate=1.0,
        )
        try:
            with pytest.raises(EmptyAnswerError) as reference:
                w.open_session(sharded=False).execute(w.spec())
            with pytest.raises(EmptyAnswerError) as gathered:
                w.open_session().execute(w.spec())
            assert str(gathered.value) == str(reference.value)
            assert gathered.value.kind == "no-answers"
        finally:
            w.close()


class TestShardCacheInvalidation:
    def test_mutating_one_shard_bumps_only_that_shards_epoch(self, workload):
        session = workload.open_session()
        spec = workload.spec(method="in_edge")
        before = session.execute(spec)
        assert [s.graph_misses for s in session.shard_stats()] == [1, 1]

        # warm: both shards serve from their query caches
        session.execute(spec)
        assert [s.graph_hits for s in session.shard_stats()] == [1, 1]

        # delete one answer record from shard 0's partitioned table
        shard0 = workload.shard_databases[0].table("ents")
        victim_id = next(iter(shard0.row_ids()))
        victim_key = shard0.get(victim_id)["id"]
        shard0.delete(victim_id)

        after = session.execute(spec)
        stats = session.shard_stats()
        # shard 0 repaired its cached graph from the delta; shard 1
        # never saw a change to a table it read and stayed warm
        assert stats[0].graph_repairs == 1
        assert stats[0].graph_misses == 1
        assert stats[1].graph_misses == 1
        assert stats[1].graph_hits == 2
        assert stats[1].graph_repairs == 0
        # ... and the gather layer serves the fresh answer set
        gone = {e.node for e in before} - {e.node for e in after}
        assert gone == {("E2", victim_key)} or victim_key not in {
            e.node[1] for e in before
        }

    def test_confidence_tuning_reaches_every_shard(self, workload):
        session = workload.open_session()
        spec = workload.spec(method="propagation")
        session.execute(spec)
        workload.mediator.confidences.set_relationship_confidence("rel0", 0.5)
        session.execute(spec)
        # tuning the shared registry invalidates both shard caches
        assert [s.graph_misses for s in session.shard_stats()] == [2, 2]


class TestStatsAndSession:
    def test_engine_stats_aggregate(self):
        total = EngineStats.aggregate(
            [
                EngineStats(graph_hits=1, score_misses=2, queries_executed=3),
                EngineStats(graph_hits=4, compile_hits=5),
            ]
        )
        assert total.graph_hits == 5
        assert total.score_misses == 2
        assert total.compile_hits == 5
        assert total.queries_executed == 3

    def test_session_stats_aggregate_over_shards(self, workload):
        session = workload.open_session()
        session.execute(workload.spec(method="in_edge"))
        snapshot = session.stats_snapshot()
        assert snapshot.queries_executed == 2  # one per shard
        assert len(session.shard_stats()) == 2
        assert "shards=2" in repr(session)

    def test_execute_many_sharded_dedups_and_orders(self, workload):
        session = workload.open_session()
        spec_a = workload.spec(method="in_edge")
        spec_b = workload.spec(method="path_count")
        results = session.execute_many([spec_a, spec_b, spec_a])
        assert results[0] is results[2]
        assert _nodes(results[1]) != []
        reference = workload.open_session(sharded=False)
        assert _nodes(results[0]) == _nodes(reference.execute(spec_a))

    def test_execute_many_sharded_return_errors(self, workload):
        session = workload.open_session()
        good = workload.spec(method="in_edge")
        bad = good.replace(value="nope")
        outcomes = session.execute_many([good, bad], return_errors=True)
        assert _nodes(outcomes[0])
        assert isinstance(outcomes[1], EmptyAnswerError)
        with pytest.raises(EmptyAnswerError):
            session.execute_many([good, bad])

    def test_explain_sharded_aggregates(self, workload):
        session = workload.open_session()
        spec = workload.spec(method="in_edge")
        first = session.explain(spec)
        second = session.explain(spec)
        assert not first.graph_cached
        assert second.graph_cached and second.score_cached
        assert first.fingerprint is None
        assert first.answers == len(session.execute(spec))
        # aggregated build stats count each shard's materialisation
        reference_session = workload.open_session(sharded=False)
        reference = reference_session.explain(spec)
        assert first.build_stats.nodes > reference.build_stats.nodes

    def test_shards_config_contradiction_rejected(self, workload):
        with pytest.raises(QueryError, match="contradicts"):
            Session(
                mediator=workload.mediator,
                config=EngineConfig(shards=3),
                router=workload.router,
            )
        with pytest.raises(QueryError, match="contradicts"):
            open_session(
                mediator=workload.mediator,
                config=EngineConfig(shards=3),
                shards=2,
            )

    def test_closed_sharded_session_rejects_execution(self, workload):
        session = workload.open_session()
        session.execute(workload.spec())  # retains a settled answer
        session.close()
        assert not session._inflight._settled  # closing drops it
        with pytest.raises(RankingError, match="closed"):
            session.execute(workload.spec())

    def test_closed_sharded_engine_refuses_work_and_keeps_no_pool(self, workload):
        engine = ShardedEngine(workload.router)
        spec = workload.spec()
        before = set(threading.enumerate())
        engine.gather(spec)
        engine.close()
        engine.close()  # idempotent
        assert engine.closed
        with pytest.raises(RankingError, match="closed"):
            engine.gather(spec)
        assert engine._pool is None
        assert not [
            thread for thread in set(threading.enumerate()) - before
            if thread.name.startswith("shard-scatter")
        ]

    def test_sharded_engine_repr_and_properties(self, workload):
        engine = ShardedEngine(workload.router)
        assert engine.shards == 2
        assert "shards=2" in repr(engine)

    def test_execute_many_respects_explicit_max_workers(self, workload):
        session = workload.open_session()
        specs = [workload.spec(method="in_edge"), workload.spec(method="path_count")]
        narrow = session.execute_many(specs, max_workers=1)
        reference = workload.open_session(sharded=False)
        for spec, outcome in zip(specs, narrow):
            assert _nodes(outcome) == _nodes(reference.execute(spec))

    def test_register_replicates_into_every_shard(self, workload):
        """A source registered on a sharded session must be visible to
        execution (which runs on the shard mediators), not just to the
        base mediator."""
        from repro.integration.sources import DataSource, EntityBinding, RelationshipBinding
        from repro.storage import Column, ColumnType, Database

        def build_source(source_entity):
            db = Database("extra")
            db.create_table(
                "terms",
                columns=[Column("id", ColumnType.TEXT)],
                primary_key=["id"],
            )
            links = db.create_table(
                "links",
                columns=[
                    Column("src", ColumnType.TEXT),
                    Column("dst", ColumnType.TEXT),
                ],
            )
            links.create_index("by_src", ["src"])
            db.insert_many("terms", [{"id": f"T:{i}"} for i in range(4)])
            db.insert_many(
                "links",
                [
                    {"src": f"{source_entity}:{j}", "dst": f"T:{j % 4}"}
                    for j in range(12)
                ],
            )
            return DataSource(
                name="Terms",
                database=db,
                entities=(EntityBinding("Term", "terms", "id"),),
                relationships=(
                    RelationshipBinding(
                        relationship="annotates",
                        table="links",
                        source_entity=source_entity,
                        source_column="src",
                        target_entity="Term",
                        target_column="dst",
                    ),
                ),
            )

        # hanging the new relationship off the *partitioned* set would
        # break the sink rule: each shard would follow links from only
        # its own E2 partition, scoring Term answers against partial
        # ancestor subgraphs — rejected up front
        with pytest.raises(SchemaError, match="traversal sink"):
            workload.open_session().register(build_source("E2"))

        # off a replicated set it is safe, and execution must see it
        sharded = workload.open_session().register(build_source("E1"))
        # the base mediator got the same registration, so the unsharded
        # reference session sees the new source too
        single = workload.open_session(sharded=False)
        spec = workload.spec(outputs=("Term",), method="in_edge")
        gathered = sharded.execute(spec)
        reference = single.execute(spec)
        assert _nodes(gathered) == _nodes(reference)


def test_stale_shard_files_with_coinciding_counts_rejected(tmp_path):
    """A row-count match must not be enough to adopt a persisted shard
    file: re-partitioning with a different shards= value can coincide
    in size while holding the wrong rows."""
    shape = dict(layers=2, width=6, fan_out=1, seeds=1, rng=9, storage="sqlite")
    first = mediated_layers(shards=3, storage_path=tmp_path, **shape)
    counts_by_three = [len(db.table("ents")) for db in first.shard_databases]
    first.close()

    partitioner = HashPartitioner(5)
    keys = [f"E1:{j}" for j in range(6)]
    counts_by_five = [
        sum(1 for k in keys if partitioner.owner("E1", k) == s) for s in range(5)
    ]
    # the interesting case: some stale file's row count coincides with
    # the new partition's expectation (ownership is a fixed content
    # hash, so this precondition is stable across runs)
    assert any(
        counts_by_five[s] == counts_by_three[s] and counts_by_three[s] > 0
        for s in range(3)
    ), "shape no longer produces a count coincidence; adjust the shape"
    from repro.errors import ValidationError

    with pytest.raises(ValidationError, match="different parameters"):
        mediated_layers(shards=5, storage_path=tmp_path, **shape)
