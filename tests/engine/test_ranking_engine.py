"""Tests for the batched, cached RankingEngine."""

import numpy as np
import pytest

from repro.core.ranker import rank
from repro.engine import RankingEngine
from repro.errors import RankingError
from repro.integration import ExploratoryQuery
from repro.workloads import mediated_layers


class TestRankMatchesDirect:
    def test_deterministic_methods(self, two_target_dag):
        engine = RankingEngine()
        for method in ("propagation", "diffusion", "in_edge", "path_count"):
            direct = rank(two_target_dag, method).scores
            via_engine = engine.rank(two_target_dag, method).scores
            for node in direct:
                assert via_engine[node] == pytest.approx(direct[node], abs=1e-9)


class TestCaching:
    def test_score_cache_hits_on_repeat(self, wheatstone):
        engine = RankingEngine()
        first = engine.rank(wheatstone, "propagation")
        second = engine.rank(wheatstone, "propagation")
        assert engine.stats.score_misses == 1
        assert engine.stats.score_hits == 1
        assert first.scores == second.scores

    def test_cache_shared_across_identical_graphs(self, wheatstone):
        """Structurally identical but distinct objects share cached scores
        via the content fingerprint."""
        engine = RankingEngine()
        engine.rank(wheatstone, "diffusion")
        engine.rank(wheatstone.copy(), "diffusion")
        assert engine.stats.score_hits == 1
        # distinct objects each compile once
        assert engine.stats.compile_misses == 2

    def test_compile_cache_reused_across_methods(self, wheatstone):
        engine = RankingEngine()
        for method in ("propagation", "in_edge", "path_count"):
            engine.rank(wheatstone, method)
        assert engine.stats.compile_misses == 1
        assert engine.stats.compile_hits == 2

    def test_options_distinguish_cache_entries(self, wheatstone):
        engine = RankingEngine()
        a = engine.rank(wheatstone, "propagation", iterations=1)
        b = engine.rank(wheatstone, "propagation", iterations=50)
        assert engine.stats.score_hits == 0
        assert a.scores != b.scores

    def test_unseeded_monte_carlo_not_cached(self, wheatstone):
        engine = RankingEngine()
        engine.rank(wheatstone, "reliability", strategy="mc", trials=50)
        engine.rank(wheatstone, "reliability", strategy="mc", trials=50)
        assert engine.stats.score_hits == 0

    def test_seeded_monte_carlo_cached(self, wheatstone):
        engine = RankingEngine()
        a = engine.rank(wheatstone, "reliability", strategy="mc", trials=50, rng=7)
        b = engine.rank(wheatstone, "reliability", strategy="mc", trials=50, rng=7)
        assert engine.stats.score_hits == 1
        assert a.scores == b.scores

    def test_cache_disabled(self, wheatstone):
        engine = RankingEngine(cache_scores=False)
        engine.rank(wheatstone, "propagation")
        engine.rank(wheatstone, "propagation")
        assert engine.stats.score_hits == 0
        assert engine.stats.score_misses == 2

    def test_invalidate_drops_scores(self, wheatstone):
        engine = RankingEngine()
        engine.rank(wheatstone, "propagation")
        engine.invalidate(wheatstone)
        engine.rank(wheatstone, "propagation")
        assert engine.stats.score_hits == 0
        assert engine.stats.score_misses == 2

    def test_lru_bound(self, wheatstone, two_target_dag):
        engine = RankingEngine(max_cached_scores=1)
        engine.rank(wheatstone, "propagation")
        engine.rank(two_target_dag, "propagation")  # evicts wheatstone
        engine.rank(wheatstone, "propagation")
        assert engine.stats.score_hits == 0
        assert engine.stats.score_misses == 3


class TestRankMany:
    def test_single_method_batch(self, wheatstone, two_target_dag):
        engine = RankingEngine()
        results = engine.rank_many([wheatstone, two_target_dag], "propagation")
        assert len(results) == 2
        assert results[0].scores == rank(wheatstone, "propagation").scores

    def test_multi_method_batch(self, two_target_dag):
        engine = RankingEngine()
        (batch,) = engine.rank_many(
            [two_target_dag],
            methods=("propagation", "rel"),
            method_options={"reliability": {"strategy": "closed"}},
        )
        assert set(batch) == {"propagation", "reliability"}
        # the graph compiled once for both methods
        assert engine.stats.compile_misses == 1

    def test_warm_batch_is_all_hits(self, wheatstone):
        engine = RankingEngine()
        engine.rank_many([wheatstone], methods=("propagation", "diffusion"))
        engine.rank_many([wheatstone.copy()], methods=("propagation", "diffusion"))
        assert engine.stats.score_hits == 2


class TestQueryExecution:
    def test_execute_requires_mediator(self):
        engine = RankingEngine()
        query = ExploratoryQuery("EntrezProtein", "name", "X", outputs=("GOTerm",))
        with pytest.raises(RankingError):
            engine.execute(query)

    def test_warm_execute_serves_cached_graph(self, scenario3_small):
        case = scenario3_small[0].case
        engine = RankingEngine(mediator=case.mediator)
        query = ExploratoryQuery(
            "EntrezProtein", "name", case.spec.protein, outputs=("GOTerm",)
        )
        cold = engine.execute(query)
        warm = engine.execute(query)
        assert warm is cold  # the very same materialised graph
        assert engine.stats.graph_misses == 1
        assert engine.stats.graph_hits == 1
        assert engine.stats.queries_executed == 1

    def test_equal_queries_share_cache_entries(self, scenario3_small):
        case = scenario3_small[0].case
        engine = RankingEngine(mediator=case.mediator)
        protein = case.spec.protein
        a = ExploratoryQuery("EntrezProtein", "name", protein, outputs=("GOTerm",))
        b = ExploratoryQuery("EntrezProtein", "name", protein, outputs=("GOTerm",))
        assert engine.execute(a) is engine.execute(b)
        assert engine.stats.graph_hits == 1

    def test_warm_execute_skips_storage(self, scenario3_small):
        """A cache hit must not touch the sources at all."""
        case = scenario3_small[0].case
        engine = RankingEngine(mediator=case.mediator)
        query = ExploratoryQuery(
            "EntrezProtein", "name", case.spec.protein, outputs=("GOTerm",)
        )
        engine.execute(query)
        lookups = []
        for source in case.mediator.sources:
            for table in source.database.tables():
                original = table.lookup_many

                def counting(columns, values, _orig=original):
                    lookups.append(columns)
                    return _orig(columns, values)

                table.lookup_many = counting
                table.lookup = counting
        try:
            engine.execute(query)
        finally:
            for source in case.mediator.sources:
                for table in source.database.tables():
                    del table.lookup_many
                    del table.lookup
        assert lookups == []

    def test_source_mutation_repairs_cached_graph(self):
        workload = mediated_layers(layers=3, width=10, rng=3)
        engine = RankingEngine(mediator=workload.mediator)
        cold = engine.execute(workload.query)
        # insert a new link into a bound table: the delta is bounded, so
        # the next execute *repairs* the cached entry by replaying only
        # the dirty BFS region — not a cold re-materialisation
        db = workload.mediator.sources[0].database
        db.insert(
            "links_rel0",
            {"src": "E0:0", "dst": "E1:1", "w": 0.5},
        )
        rebuilt = engine.execute(workload.query)
        assert rebuilt is not cold
        assert engine.stats.graph_misses == 1
        assert engine.stats.graph_repairs == 1
        assert engine.stats.graph_hits == 0
        # the new link (and whatever it made reachable) is picked up,
        # bit-identically to a cold rebuild
        assert rebuilt.graph.num_edges > cold.graph.num_edges
        fresh, _ = workload.query.execute(workload.mediator)
        assert list(rebuilt.graph.nodes()) == list(fresh.graph.nodes())
        assert [
            (e.key, e.source, e.target, rebuilt.graph.q(e.key))
            for e in rebuilt.graph.edges()
        ] == [
            (e.key, e.source, e.target, fresh.graph.q(e.key))
            for e in fresh.graph.edges()
        ]

    def test_unread_table_mutation_keeps_cache_entry_warm(self):
        """Over-invalidation regression: a mutation in a bound table the
        cached build never read must stay a plain cache hit."""
        from repro.integration.sources import DataSource, EntityBinding
        from repro.storage import Column, ColumnType, Database

        workload = mediated_layers(layers=3, width=10, rng=3)
        engine = RankingEngine(mediator=workload.mediator)
        cold = engine.execute(workload.query)
        # register a side source providing an entity set the query never
        # reaches: its table is bound (it bumps the mediator epoch on
        # mutation) but the cached build cannot have probed it
        db = Database("side_db")
        db.create_table(
            "extras",
            [Column("id", ColumnType.TEXT), Column("w", ColumnType.FLOAT)],
            primary_key=["id"],
        )
        db.insert("extras", {"id": "X1", "w": 0.5})
        source = DataSource(
            name="side",
            database=db,
            entities=(EntityBinding("Extra", table="extras", key_column="id"),),
        )
        workload.mediator.register(source)
        # registration is structural: the first probe after it is a miss
        engine.execute(workload.query)
        assert engine.stats.graph_misses == 2
        # ... but once re-recorded, mutating the unread side table must
        # leave the entry warm: hits increment, no misses, no repairs
        db.insert("extras", {"id": "X2", "w": 0.25})
        warm = engine.execute(workload.query)
        assert engine.stats.graph_hits == 1
        assert engine.stats.graph_misses == 2
        assert engine.stats.graph_repairs == 0
        assert list(warm.graph.nodes()) == list(cold.graph.nodes())

    def test_confidence_tuning_invalidates_cached_graph(self):
        workload = mediated_layers(layers=3, width=10, rng=5)
        engine = RankingEngine(mediator=workload.mediator)
        cold = engine.execute(workload.query)
        workload.mediator.confidences.set_entity_confidence("E2", 0.5)
        rebuilt = engine.execute(workload.query)
        assert rebuilt is not cold
        assert engine.stats.graph_misses == 2
        assert engine.stats.graph_hits == 0
        node = next(iter(rebuilt.targets))
        assert rebuilt.graph.p(node) == pytest.approx(0.5 * cold.graph.p(node))

    def test_execute_many_batches(self, scenario3_small):
        case = scenario3_small[0].case
        engine = RankingEngine(mediator=case.mediator)
        query = ExploratoryQuery(
            "EntrezProtein", "name", case.spec.protein, outputs=("GOTerm",)
        )
        graphs = engine.execute_many([query, query, query])
        assert graphs[0] is graphs[1] is graphs[2]
        assert engine.stats.graph_misses == 1
        assert engine.stats.graph_hits == 2

    def test_graph_cache_disabled(self, scenario3_small):
        case = scenario3_small[0].case
        engine = RankingEngine(mediator=case.mediator, cache_graphs=False)
        query = ExploratoryQuery(
            "EntrezProtein", "name", case.spec.protein, outputs=("GOTerm",)
        )
        assert engine.execute(query) is not engine.execute(query)
        assert engine.stats.graph_hits == 0
        assert engine.stats.queries_executed == 2

    def test_graph_cache_lru_bound(self):
        # two traversals (output sets alone would share one entry)
        workload = mediated_layers(layers=3, width=10, rng=4)
        engine = RankingEngine(mediator=workload.mediator, max_cached_graphs=1)
        q1 = ExploratoryQuery("E0", "id", "E0:0", outputs=("E2",))
        q2 = ExploratoryQuery("E0", "id", "E0:1", outputs=("E2",))
        engine.execute(q1)
        engine.execute(q2)  # evicts q1
        engine.execute(q1)
        assert engine.stats.graph_hits == 0
        assert engine.stats.graph_misses == 3

    def test_invalidate_single_graph_drops_its_cache_entry(self):
        workload = mediated_layers(layers=3, width=10, rng=4)
        engine = RankingEngine(mediator=workload.mediator)
        qg = engine.execute(workload.query)
        engine.rank(qg, "propagation")
        engine.invalidate(qg)  # cache non-empty: targeted invalidation
        engine.execute(workload.query)
        assert engine.stats.graph_hits == 0
        assert engine.stats.graph_misses == 2

    def test_invalidate_clears_graph_cache(self, scenario3_small):
        case = scenario3_small[0].case
        engine = RankingEngine(mediator=case.mediator)
        query = ExploratoryQuery(
            "EntrezProtein", "name", case.spec.protein, outputs=("GOTerm",)
        )
        engine.execute(query)
        engine.invalidate()
        engine.execute(query)
        assert engine.stats.graph_hits == 0
        assert engine.stats.graph_misses == 2

    def test_mediator_swap_never_serves_foreign_graphs(self):
        """Reassigning engine.mediator must invalidate cached graphs even
        when the two mediators happen to share an epoch value."""
        a = mediated_layers(layers=3, width=10, rng=1)
        b = mediated_layers(layers=3, width=10, rng=2)
        assert a.mediator.epoch == b.mediator.epoch  # same shape, same sums
        engine = RankingEngine(mediator=a.mediator)
        from_a = engine.execute(a.query)
        engine.mediator = b.mediator
        from_b = engine.execute(b.query)  # same signature as a.query
        assert from_b is not from_a
        assert engine.stats.graph_misses == 2

    def test_rank_an_exploratory_query(self, scenario3_small):
        case = scenario3_small[0].case
        engine = RankingEngine(mediator=case.mediator)
        query = ExploratoryQuery(
            "EntrezProtein", "name", case.spec.protein, outputs=("GOTerm",)
        )
        result = engine.rank(query, "reliability", strategy="closed")
        assert engine.stats.queries_executed == 1
        direct = rank(case.query_graph, "reliability", strategy="closed").scores
        assert set(result.scores) == set(direct)
        for node in direct:
            assert result.scores[node] == pytest.approx(direct[node], abs=1e-9)

    def test_unrankable_target_rejected(self):
        engine = RankingEngine()
        with pytest.raises(RankingError):
            engine.rank("not a graph", "propagation")


class TestPackedScoreCache:
    """Score-cache entries are a keys tuple plus one float64 array; a
    hit must rebuild exactly what the filling miss returned."""

    _REQUESTS = [
        ("reliability", {"trials": 200, "rng": 5}),
        ("reliability", {"strategy": "closed"}),
        ("propagation", {}),
        ("diffusion", {}),
        ("in_edge", {}),
        ("path_count", {}),
    ]

    @staticmethod
    def _graph():
        workload = mediated_layers(layers=3, width=16, fan_out=3, rng=11)
        engine = RankingEngine(mediator=workload.mediator)
        return engine, engine.execute(workload.query)

    @pytest.mark.parametrize(
        "method,options", _REQUESTS, ids=[m for m, _ in _REQUESTS]
    )
    def test_hit_returns_the_miss_exactly(self, method, options):
        engine, qg = self._graph()
        miss, miss_cached = engine.rank_with_stats(qg, method, **options)
        hit, hit_cached = engine.rank_with_stats(qg, method, **options)
        assert (miss_cached, hit_cached) == (False, True)
        assert list(hit.scores) == list(miss.scores)
        assert [type(v) for v in hit.scores.values()] == [float] * len(hit.scores)
        assert [v.hex() for v in hit.scores.values()] == [
            v.hex() for v in miss.scores.values()
        ]
        (entry,) = engine._scores.values()
        keys, values = entry
        assert keys == tuple(miss.scores)
        assert values.dtype == np.float64

    def test_hits_hand_out_independent_dicts(self):
        engine, qg = self._graph()
        engine.rank(qg, "in_edge")
        first = engine.rank(qg, "in_edge")
        first.scores.clear()
        assert len(engine.rank(qg, "in_edge").scores) > 0

    def test_a_settled_answer_serves_the_same_scores(self):
        workload = mediated_layers(layers=3, width=16, fan_out=3, rng=11)
        spec = workload.spec(method="propagation")
        with workload.open_session() as session:
            miss = session.execute(spec)
            before = session.stats_snapshot()
            hit = session.execute(spec)
            after = session.stats_snapshot()
        assert hit.graph is miss.graph
        assert list(hit.scores.items()) == list(miss.scores.items())
        assert after.graph_hits - before.graph_hits == 1
        assert after.score_hits - before.score_hits == 1
        workload.close()
