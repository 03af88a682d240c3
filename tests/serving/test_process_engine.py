"""Process-mode scatter/gather: equivalence, supervision, lifecycle."""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, Session
from repro.engine.sharded import ShardRouter
from repro.errors import EmptyAnswerError, GraphError, QueryError, RankingError
from repro.serving.engine import live_worker_processes
from repro.serving.source import WorkerSource
from repro.workloads import mediated_layers


def _observe(results):
    """Everything a client can see, as plain data (mirrors the
    cross-shard property harness)."""
    page = results.page(2, size=3)
    return {
        "entities": [
            (e.node, e.entity_set, e.key, e.label, e.score, e.rank, e.rank_interval)
            for e in results
        ],
        "tie_groups": [[e.node for e in group] for group in results.tie_groups()],
        "page2": [e.node for e in page],
        "page_totals": (page.total_results, page.total_pages),
        "json": results.to_json(),
        "provenance": [results.explain(e) for e in results.top(3)],
    }


class TestEquivalence:
    def test_process_equals_thread_equals_single(self, workload, process_config, specs):
        with workload.open_session(sharded=False) as session:
            single = [_observe(session.execute(spec)) for spec in specs]
        with workload.open_session(config=EngineConfig(shards=2)) as session:
            thread = [_observe(session.execute(spec)) for spec in specs]
        with workload.open_session(config=process_config) as session:
            process = [_observe(session.execute(spec)) for spec in specs]
        # Process mode must match thread mode bit-for-bit on every method,
        # including seeded Monte Carlo.
        assert process == thread
        # Sharded-vs-single identity holds for deterministic rankers only:
        # each shard samples its own compiled graph, so MC streams differ
        # (same carve-out as the PR 5 cross-shard harness).
        deterministic = [
            i for i, spec in enumerate(specs)
            if spec.options is None or spec.options.strategy != "mc"
        ]
        assert deterministic, "spec mix must include deterministic methods"
        assert [thread[i] for i in deterministic] == [single[i] for i in deterministic]

    def test_execute_many_matches_execute(self, workload, process_config):
        batch = workload.serving_batch(methods=("in_edge", "path_count"))
        with workload.open_session(config=process_config) as session:
            one_by_one = [_observe(session.execute(spec)) for spec in batch]
            batched = [_observe(r) for r in session.execute_many(batch)]
        assert batched == one_by_one

    def test_explain_matches_thread_mode(self, workload, process_config):
        spec = workload.spec(method="in_edge")
        with workload.open_session(config=EngineConfig(shards=2)) as session:
            thread = session.explain(spec).as_dict()
        with workload.open_session(config=process_config) as session:
            process = session.explain(spec).as_dict()
        for record in (thread, process):
            for volatile in ("build_seconds", "rank_seconds", "engine_stats"):
                record.pop(volatile)
        assert process == thread

    def test_empty_answer_error_matches(self, workload, process_config):
        spec = workload.spec(method="in_edge")
        bogus = type(spec).from_dict({
            **spec.to_dict(), "value": "no-such-root"
        })
        with workload.open_session(sharded=False) as session:
            with pytest.raises(EmptyAnswerError) as single_exc:
                session.execute(bogus)
        with workload.open_session(config=process_config) as session:
            with pytest.raises(EmptyAnswerError) as process_exc:
                session.execute(bogus)
        assert str(process_exc.value) == str(single_exc.value)
        assert process_exc.value.kind == single_exc.value.kind


class TestLifecycle:
    def test_close_reaps_workers_and_is_idempotent(self, workload, process_config):
        session = workload.open_session(config=process_config)
        engine = session.process_engine
        pids = [w["pid"] for w in engine.describe_workers()]
        assert len(pids) == 2 and all(isinstance(p, int) for p in pids)
        assert len(live_worker_processes()) == 2
        session.close()
        assert live_worker_processes() == []
        session.close()  # double close is a no-op
        assert session.closed
        with pytest.raises(RankingError, match="closed"):
            session.execute(workload.spec())

    def test_context_manager_reaps_workers(self, workload, process_config):
        with workload.open_session(config=process_config) as session:
            session.execute(workload.spec())
            assert len(live_worker_processes()) == 2
        assert live_worker_processes() == []

    def test_closed_engine_refuses_gather(self, workload, process_config):
        session = workload.open_session(config=process_config)
        engine = session.process_engine
        session.close()
        with pytest.raises(RankingError, match="closed"):
            engine.gather(workload.query)

    def test_register_is_rejected_in_process_mode(self, workload, process_config):
        with workload.open_session(config=process_config) as session:
            with pytest.raises(QueryError, match="process-sharded"):
                session.register(object())

    def test_repair_reload_reattaches(self, workload, process_config):
        spec = workload.spec(method="in_edge")
        with workload.open_session(config=process_config) as session:
            before = dict(session.execute(spec).scores)
            session.process_engine.repair(reload=True)
            after = dict(session.execute(spec).scores)
        assert after == before

    def test_stats_aggregate_over_workers(self, workload, process_config):
        with workload.open_session(config=process_config) as session:
            session.execute(workload.spec())
            per_shard = session.shard_stats()
            assert len(per_shard) == 2
            total = session.stats_snapshot()
            assert total.queries_executed == sum(
                s.queries_executed for s in per_shard
            )
            session.reset_stats()
            assert session.stats_snapshot().queries_executed == 0


class TestResultSurface:
    def test_graph_property_raises_with_guidance(self, workload, process_config):
        with workload.open_session(config=process_config) as session:
            results = session.execute(workload.spec())
            with pytest.raises(GraphError, match="worker processes"):
                results.graph

    def test_unknown_node_provenance_raises(self, workload, process_config):
        with workload.open_session(config=process_config) as session:
            results = session.execute(workload.spec())
            with pytest.raises(GraphError, match="not in this result set"):
                results.explain(("E2", "E2:nope"))

    def test_owner_shards_cover_every_answer(self, workload, process_config):
        with workload.open_session(config=process_config) as session:
            results = session.execute(workload.spec())
            owners = results.owner_shards
            assert set(owners) == set(results.scores)
            assert set(owners.values()) <= {0, 1}


class TestConfigValidation:
    def test_bad_shard_mode_rejected(self):
        with pytest.raises(RankingError, match="shard_mode"):
            EngineConfig(shard_mode="fork")

    def test_bad_rpc_timeout_rejected(self):
        with pytest.raises(RankingError, match="rpc_timeout"):
            EngineConfig(rpc_timeout=0)

    def test_bad_worker_restarts_rejected(self):
        with pytest.raises(RankingError, match="worker_restarts"):
            EngineConfig(worker_restarts=-1)

    def test_config_round_trips_new_fields(self):
        config = EngineConfig(shard_mode="process", rpc_timeout=5.0,
                              worker_restarts=1)
        assert EngineConfig.from_dict(config.as_dict()) == config

    def test_process_mode_requires_worker_source(self, workload):
        with pytest.raises(QueryError, match="worker_source"):
            Session(
                mediator=workload.mediator,
                config=EngineConfig(shards=2, shard_mode="process"),
                router=workload.router,
            )

    def test_worker_source_requires_sharded_session(self, workload):
        source = workload.worker_source()
        with pytest.raises(QueryError, match="sharded"):
            Session(mediator=workload.mediator, worker_source=source)

    def test_thread_mode_rejects_worker_source(self, workload):
        source = workload.worker_source()
        with pytest.raises(QueryError, match='shard_mode="process"'):
            Session(
                mediator=workload.mediator,
                config=EngineConfig(shards=2),
                router=workload.router,
                worker_source=source,
            )


class TestWorkerSource:
    def test_round_trip(self, workload):
        source = workload.worker_source()
        assert WorkerSource.from_dict(source.to_dict()) == source

    def test_unknown_field_rejected(self):
        with pytest.raises(QueryError, match="unknown WorkerSource field"):
            WorkerSource.from_dict({
                "factory": "a:b", "bogus": 1,
            })

    def test_partitioner_key_rejected(self):
        """Every worker partitions by the one stable hash partitioner,
        so the wire form carries no partitioner to choose."""
        assert "partitioner" not in WorkerSource(factory="a:b").to_dict()
        with pytest.raises(QueryError, match="unknown WorkerSource field"):
            WorkerSource.from_dict({
                "factory": "a:b", "partitioner": "hash",
            })

    def test_bad_factory_reference_rejected(self):
        with pytest.raises(QueryError, match="module:attr"):
            WorkerSource(factory="no-colon-here")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("shards", 2.9, "shards"),
            ("shards", "3", "shards"),
            ("shards", True, "shards"),
            ("factory", ["a:b"], "module:attr"),
            ("kwargs", [["rng", 3]], "kwargs"),
        ],
    )
    def test_wire_values_are_not_coerced(self, field, value, message):
        """The boot record's values reach ``__post_init__`` as sent, so a
        float, string or bool shard count is refused, not truncated."""
        with pytest.raises(QueryError, match=message):
            WorkerSource.from_dict({"factory": "a:b", field: value})

    def test_unsharded_workload_needs_explicit_seed(self):
        generated = mediated_layers(layers=2, width=4, shards=2)  # rng=None
        try:
            with pytest.raises(Exception, match="integer rng seed"):
                generated.worker_source()
        finally:
            generated.close()

    def test_shard_count_mismatch_rejected_at_resolve(self):
        source = WorkerSource(
            factory="repro.workloads.mediated:mediated_layers",
            kwargs={"layers": 2, "width": 4, "rng": 3, "shards": 2},
            shards=3,
        )
        with pytest.raises(QueryError, match="expects 3"):
            source.resolve()

    def test_engine_rejects_router_mismatch(self, workload):
        source = WorkerSource(
            factory="repro.workloads.mediated:mediated_layers",
            kwargs=dict(workload.generation),
            shards=3,
        )
        router = ShardRouter.partition(workload.mediator, 2)
        from repro.serving.engine import ProcessShardedEngine

        with pytest.raises(QueryError, match="router has 2"):
            ProcessShardedEngine(router, source)
