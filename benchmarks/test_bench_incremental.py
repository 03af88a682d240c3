"""Incremental invalidation benchmarks: streaming refresh vs cold rebuild.

The streaming scenario the ISSUE's tentpole targets: a warm serving
engine over ~108k source rows (3 layers x 12k entities + 2 x 36k
unindexed links) whose answer layer receives periodic batched weight
refreshes. A refresh dirties ~10 entity records, so the delta replay
re-probes a handful of primary-key rows and patches the compiled CSR —
while a cold rebuild must re-scan the unindexed link tables end to end.

Measured here:

* the per-refresh serving latency of a caching engine (repair path)
  and of a ``cache_graphs=False`` engine (cold re-materialise);
* the headline ratio — incremental refresh must be >= 3x faster than
  the cold rebuild (typically far more; the floor absorbs CI noise);
* cache-hit-flatness for *untouched* queries: mutations to a bound
  table the cached build never read must leave the entry warm (zero
  extra ``graph_misses``), so unrelated ingest cannot degrade serving.

Wall-clock comparisons are skipped under ``--benchmark-disable`` (the
CI smoke step), matching the other benchmark suites.
"""

from __future__ import annotations

import time

import pytest

from repro.engine import RankingEngine
from repro.integration.sources import DataSource, EntityBinding
from repro.storage import Column, ColumnType, Database
from repro.workloads import mediated_layers

#: scan-bound streaming shape: wide unindexed link tables, one seed —
#: a cold build is dominated by full-table link scans, a repair is not
_STREAM_SHAPE = dict(
    layers=3, width=12_000, fan_out=3, seeds=1, rng=7, index_links=False
)

#: rows refreshed per simulated source update
_REFRESH = 10


def _warm_workload(cache_graphs=True):
    workload = mediated_layers(**_STREAM_SHAPE)
    engine = RankingEngine(mediator=workload.mediator, cache_graphs=cache_graphs)
    qg = engine.execute(workload.query)  # cold baseline, cached
    engine.compile(qg)  # so refreshes exercise the CSR patch too
    return workload, engine


@pytest.mark.benchmark(group="engine-incremental-refresh")
class TestStreamingRefresh:
    def test_incremental_refresh(self, benchmark):
        workload, engine = _warm_workload()
        state = {"tick": 0}

        def refresh():
            state["tick"] += 1
            workload.refresh_entity_weights(count=_REFRESH, rng=state["tick"])
            return (), {}

        benchmark.pedantic(
            lambda: engine.execute(workload.query),
            setup=refresh,
            rounds=5,
            iterations=1,
        )
        stats = engine.stats_snapshot()
        assert stats.graph_repairs == state["tick"]  # every round repaired
        assert stats.graph_misses == 1  # only the baseline was cold
        workload.close()

    def test_cold_refresh(self, benchmark):
        workload, engine = _warm_workload(cache_graphs=False)
        state = {"tick": 0}

        def refresh():
            state["tick"] += 1
            workload.refresh_entity_weights(count=_REFRESH, rng=state["tick"])
            return (), {}

        benchmark.pedantic(
            lambda: engine.execute(workload.query),
            setup=refresh,
            rounds=3,
            iterations=1,
        )
        stats = engine.stats_snapshot()
        assert stats.graph_repairs == 0
        assert stats.queries_executed == state["tick"] + 1  # every one cold
        workload.close()

    def test_incremental_beats_cold_3x(self, request):
        """The tentpole's headline claim, asserted."""
        if request.config.getoption("benchmark_disable", False):
            pytest.skip("timing comparison skipped under --benchmark-disable")

        def refresh_seconds(repair, rounds=3):
            workload, engine = _warm_workload(cache_graphs=repair)
            best = float("inf")
            for tick in range(1, rounds + 1):
                workload.refresh_entity_weights(count=_REFRESH, rng=100 + tick)
                started = time.perf_counter()
                engine.execute(workload.query)
                best = min(best, time.perf_counter() - started)
            stats = engine.stats_snapshot()
            if repair:
                assert stats.graph_repairs == rounds
            else:
                assert stats.queries_executed == rounds + 1
            workload.close()
            return best

        cold = refresh_seconds(repair=False)
        incremental = refresh_seconds(repair=True)
        assert incremental * 3 < cold, (
            f"incremental refresh ({incremental * 1e3:.1f} ms) must be "
            f">=3x faster than a cold rebuild ({cold * 1e3:.1f} ms)"
        )


@pytest.mark.benchmark(group="engine-incremental-untouched")
class TestUntouchedQueryFlatness:
    """Ingest into tables a cached query never read must not disturb
    its serving latency: the entry stays a plain dictionary probe."""

    @staticmethod
    def _attach_side_source(workload):
        db = Database("side_db")
        db.create_table(
            "extras",
            [Column("id", ColumnType.TEXT), Column("w", ColumnType.FLOAT)],
            primary_key=["id"],
        )
        db.insert("extras", {"id": "X0", "w": 0.5})
        workload.mediator.register(
            DataSource(
                name="side",
                database=db,
                entities=(EntityBinding("Extra", table="extras", key_column="id"),),
            )
        )
        return db

    def test_untouched_query_stays_cache_hit_flat(self, benchmark):
        workload, engine = _warm_workload()
        side = self._attach_side_source(workload)
        engine.execute(workload.query)  # re-record after the structural miss
        baseline = engine.stats_snapshot()
        state = {"tick": 0}

        def ingest():
            state["tick"] += 1
            side.insert("extras", {"id": f"X{state['tick']}", "w": 0.25})
            return (), {}

        benchmark.pedantic(
            lambda: engine.execute(workload.query),
            setup=ingest,
            rounds=5,
            iterations=1,
        )
        stats = engine.stats_snapshot()
        assert stats.graph_misses == baseline.graph_misses  # zero new misses
        assert stats.graph_repairs == baseline.graph_repairs
        assert stats.graph_hits == baseline.graph_hits + state["tick"]
        workload.close()
