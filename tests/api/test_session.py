"""Session facade: execution, batching, caching, explain, lifecycle."""

import pytest

from repro.api import (
    EngineConfig,
    Query,
    QuerySpec,
    RankingOptions,
    ResultSet,
    open_session,
)
from repro.engine import EngineStats
from repro.errors import QueryError, RankingError
from repro.workloads.mediated import mediated_layers


@pytest.fixture()
def workload():
    return mediated_layers(layers=3, width=25, fan_out=2, seeds=2, rng=3)


@pytest.fixture()
def session(workload):
    return workload.open_session()


class TestOpenSession:
    def test_mediator_and_sources_conflict(self, workload):
        with pytest.raises(QueryError, match="not both"):
            open_session(sources=[object()], mediator=workload.mediator)

    def test_empty_session_ranks_prebuilt_graphs(self, workload):
        qg = workload.query.execute(workload.mediator)[0]
        results = open_session().rank(qg, "in_edge")
        assert isinstance(results, ResultSet)
        assert len(results) == len(qg.targets)

    def test_fresh_session_starts_empty(self):
        assert open_session().mediator.sources == []


class TestExecute:
    def test_accepts_spec_builder_and_dict(self, workload, session):
        spec = workload.spec(method="path_count")
        by_spec = session.execute(spec)
        by_builder = session.execute(
            Query.on(spec.entity_set)
            .where(spec.attribute, spec.value)
            .outputs(*spec.outputs)
            .rank_by("path_count")
        )
        by_dict = session.execute(spec.to_dict())
        assert by_spec.scores == by_builder.scores == by_dict.scores

    def test_rejects_other_types(self, session):
        with pytest.raises(QueryError, match="cannot execute"):
            session.execute(42)

    def test_unknown_entity_set_fails(self, session):
        with pytest.raises(QueryError, match="no source provides"):
            session.execute(Query.on("Nope").where(a=1).outputs("E1"))

    def test_workload_spec_outputs_forms(self, workload):
        assert workload.spec(outputs="E1").outputs == ("E1",)
        assert workload.spec().outputs == (workload.entity_sets[-1],)
        with pytest.raises(QueryError, match="at least one output"):
            workload.spec(outputs=[])

    def test_result_carries_spec(self, workload, session):
        spec = workload.spec(method="in_edge", top_k=2)
        results = session.execute(spec)
        assert results.spec == spec
        assert results.method == "in_edge"
        assert len(results.top()) == 2

    def test_repeated_execute_hits_caches(self, workload, session):
        spec = workload.spec(method="in_edge")
        first = session.execute(spec)
        stats = session.stats()
        assert (stats.graph_hits, stats.score_hits) == (0, 0)
        second = session.execute(spec)
        stats = session.stats()
        assert stats.graph_hits == 1
        assert stats.score_hits == 1
        assert first.scores == second.scores
        # the cached path reuses the very same materialised graph
        assert first.graph is second.graph


class TestSeedReproducibility:
    """QuerySpec.seed makes Monte Carlo reliability deterministic
    end to end — and therefore engine-cacheable."""

    def test_same_seed_same_scores_across_sessions(self, workload):
        spec = workload.spec(
            method="reliability",
            options=RankingOptions(strategy="mc", trials=200),
            seed=11,
        )
        scores_a = workload.open_session().execute(spec).scores
        scores_b = workload.open_session().execute(spec).scores
        assert scores_a == scores_b

    def test_different_seeds_differ(self, workload, session):
        spec = workload.spec(
            method="reliability",
            options=RankingOptions(strategy="mc", trials=50),
            seed=1,
        )
        other = spec.replace(seed=2)
        assert session.execute(spec).scores != session.execute(other).scores

    def test_seeded_mc_is_score_cacheable(self, workload, session):
        spec = workload.spec(
            method="reliability",
            options=RankingOptions(strategy="mc", trials=50),
            seed=5,
        )
        session.execute(spec)
        session.execute(spec)
        assert session.stats().score_hits == 1

    def test_unseeded_mc_is_not_cached(self, workload, session):
        spec = workload.spec(
            method="reliability",
            options=RankingOptions(strategy="mc", trials=50),
        )
        session.execute(spec)
        session.execute(spec)
        stats = session.stats()
        assert stats.score_hits == 0
        assert stats.graph_hits == 1  # the graph, however, is shared


class TestExecuteMany:
    def test_matches_sequential_execute(self, workload):
        specs = workload.serving_batch(methods=("in_edge", "path_count"))
        sequential = [
            workload.open_session().execute(spec).scores for spec in specs
        ]
        batched = workload.open_session().execute_many(specs)
        assert [r.scores for r in batched] == sequential

    def test_results_in_spec_order(self, workload, session):
        specs = [
            workload.spec(outputs=("E2",), method="path_count"),
            workload.spec(outputs=("E1",), method="in_edge"),
        ]
        results = session.execute_many(specs)
        assert results[0].spec == specs[0]
        assert results[1].spec == specs[1]

    def test_duplicates_answered_once(self, workload, session):
        spec = workload.spec(method="in_edge")
        results = session.execute_many([spec, spec, spec])
        assert len(results) == 3
        assert results[0] is results[1] is results[2]
        assert session.stats().queries_executed == 1

    def test_shared_traversal_materialises_once(self, workload, session):
        # three different output sets over one traversal: one build
        specs = [
            workload.spec(outputs=(layer,), method="in_edge")
            for layer in workload.entity_sets
        ]
        session.execute_many(specs)
        assert session.stats().queries_executed == 1

    def test_thread_pool_matches_sequential(self, workload):
        # per-record point queries: five distinct traversal groups, so
        # the thread pool genuinely engages
        specs = [
            QuerySpec("E0", "id", f"E0:{i}", outputs=outputs, method=method)
            for i in range(5)
            for outputs, method in (
                (("E1", "E2"), "path_count"),
                (("E2",), "in_edge"),
            )
        ]
        expected = [
            workload.open_session().execute(spec).scores for spec in specs
        ]
        threaded = workload.open_session(
            EngineConfig(max_workers=4)
        ).execute_many(specs)
        assert [r.scores for r in threaded] == expected

    def test_errors_raise_by_default(self, workload, session):
        good = workload.spec(method="in_edge")
        bad = good.replace(attribute="missing_column")
        with pytest.raises(QueryError, match="missing_column"):
            session.execute_many([good, bad])

    def test_return_errors_keeps_slots(self, workload, session):
        good = workload.spec(method="in_edge")
        bad = good.replace(attribute="missing_column")
        unreachable = good.replace(outputs=("E9",))  # no such entity set
        results = session.execute_many(
            [good, bad, unreachable], return_errors=True
        )
        assert isinstance(results[0], ResultSet)
        assert isinstance(results[1], QueryError)
        assert isinstance(results[2], QueryError)

    def test_union_failure_reports_per_spec_errors(self, workload, session):
        """When no spec in a traversal group has answers, each spec's
        error names only its own output sets (parity with execute())."""
        a = workload.spec(outputs=("E8",))
        b = workload.spec(outputs=("E9",))
        results = session.execute_many([a, b], return_errors=True)
        assert "E8" in str(results[0]) and "E9" not in str(results[0])
        assert "E9" in str(results[1]) and "E8" not in str(results[1])

    def test_derived_views_match_direct_execution(self, workload):
        """A spec served from a shared (union) traversal must score
        exactly like the same spec executed directly."""
        batched_session = workload.open_session()
        specs = [
            workload.spec(outputs=("E1",), method="path_count"),
            workload.spec(outputs=("E2",), method="path_count"),
            workload.spec(outputs=("E1", "E2"), method="path_count"),
        ]
        batched = batched_session.execute_many(specs)
        for spec, result in zip(specs, batched):
            direct = workload.open_session().execute(spec)
            assert direct.scores == result.scores


class TestExplainAndStats:
    def test_explain_cold_then_warm(self, workload, session):
        spec = workload.spec(method="in_edge")
        cold = session.explain(spec)
        assert not cold.graph_cached
        assert cold.nodes > 0 and cold.edges > 0 and cold.answers > 0
        assert "builder" not in cold.as_dict()
        assert "backend" not in cold.as_dict()
        assert cold.fingerprint
        warm = session.explain(spec)
        assert warm.graph_cached
        assert warm.score_cached
        assert warm.fingerprint == cold.fingerprint
        assert "query cache" in str(warm)
        assert warm.as_dict()["engine_stats"]["graph_hits"] >= 1

    def test_stats_surface(self, workload, session):
        spec = workload.spec(method="in_edge")
        session.execute(spec)
        session.execute(spec)
        stats = session.stats()
        assert isinstance(stats, EngineStats)
        assert stats.graph_hit_rate == 0.5
        assert stats.score_hit_rate == 0.5
        data = stats.as_dict()
        assert data["graph_hits"] == 1
        assert data["score_hit_rate"] == 0.5
        assert "graph 1/2 (50%)" in str(stats)
        session.reset_stats()
        assert session.stats().queries_executed == 0

    def test_empty_stats_rates_are_zero(self):
        stats = EngineStats()
        assert stats.graph_hit_rate == 0.0
        assert stats.compile_hit_rate == 0.0
        assert stats.score_hit_rate == 0.0


class TestLifecycle:
    def test_context_manager_closes(self, workload):
        with workload.open_session() as session:
            session.execute(workload.spec(method="in_edge"))
        assert session.closed
        with pytest.raises(RankingError, match="closed"):
            session.execute(workload.spec(method="in_edge"))
        with pytest.raises(RankingError, match="closed"):
            session.execute_many([])
        with pytest.raises(RankingError, match="closed"):
            session.register()

    def test_repr(self, session):
        assert "open" in repr(session)
        session.close()
        assert "closed" in repr(session)

    def test_session_exposes_plumbing(self, workload, session):
        assert session.mediator is workload.mediator
        assert session.engine.mediator is workload.mediator
        assert session.config == EngineConfig()


class TestLegacySpellings:
    def test_rank_accepts_plain_mapping_options(self, workload, session):
        qg = workload.query.execute(workload.mediator)[0]
        by_mapping = session.rank(
            qg, "reliability", options={"strategy": "closed"}
        )
        by_object = session.rank(
            qg, "reliability", options=RankingOptions(strategy="closed")
        )
        assert by_mapping.scores == by_object.scores

    def test_rank_options_unpacks_into_low_level_rank(self, workload):
        """The pre-facade spelling over RANK_OPTIONS must keep working."""
        from repro.core.ranker import rank
        from repro.experiments.runner import RANK_OPTIONS

        qg = workload.query.execute(workload.mediator)[0]
        result = rank(qg, "reliability", **RANK_OPTIONS.get("reliability", {}))
        assert result.scores
