"""Storage-backend benchmarks: memory vs SQLite vs vectorized.

Four questions, per backend:

* **cold lookup** — what does one frontier-sized ``lookup_many`` batch
  cost against an unindexed link table (the thin-wrapper regime where
  every probe is a scan — SQLite's worst case)?
* **end-to-end latency** — cold ``Session.execute`` (graph
  materialisation through the backend) and warm ``Session.execute``
  (served from the engine's epoch-guarded query cache, which must be
  backend-independent: a warm hit never touches storage).
* **scale** — a ≥100k-record layered workload persisted into SQLite and
  served end to end through ``Session.execute``; the warm path must
  collapse to a cache probe even when the cold path reads from disk.
* **vectorized payoff** — a scan-bound cold execute on the numpy scan
  path, and re-attaching persisted ``.npy`` layers must stay O(1) in
  row count (memory-mapped, no column load).
"""

import numpy as np
import pytest

from repro.api import EngineConfig
from repro.storage import STORAGE_BACKENDS, Column, ColumnType, Database
from repro.storage.sqlite import SQLiteStore
from repro.workloads import mediated_layers

#: shape of the per-backend comparison workload (unindexed links)
_SHAPE = dict(layers=3, width=2000, fan_out=3, seeds=4, rng=5, index_links=False)


def _workload(storage, tmp_dir=None, **overrides):
    shape = dict(_SHAPE, **overrides)
    return mediated_layers(
        storage=storage,
        storage_path=tmp_dir if storage == "sqlite" else None,
        **shape,
    )


@pytest.fixture(scope="session", params=STORAGE_BACKENDS)
def backend_workload(request, tmp_path_factory):
    """The same mediated workload materialised on each storage backend."""
    tmp_dir = tmp_path_factory.mktemp(f"bench-{request.param}")
    return request.param, _workload(request.param, tmp_dir)


@pytest.fixture(scope="session")
def sqlite_100k(tmp_path_factory):
    """A ≥100k-record layered workload persisted into SQLite files."""
    workload = mediated_layers(
        layers=3,
        width=34000,
        fan_out=1,
        seeds=250,
        rng=11,
        storage="sqlite",
        storage_path=tmp_path_factory.mktemp("bench-sqlite-100k"),
    )
    assert workload.total_records >= 100_000
    return workload


@pytest.mark.benchmark(group="storage-cold-lookup")
class TestColdLookup:
    def test_lookup_many_frontier(self, benchmark, backend_workload):
        storage, workload = backend_workload
        links = workload.mediator.entity_plan("E0").out[0].table
        # a selective frontier (1 in 20 keys)
        frontier = [f"E0:{j}" for j in range(0, _SHAPE["width"], 20)]

        result = benchmark.pedantic(
            lambda: links.lookup_many(("src",), frontier),
            rounds=3,
            iterations=3,
        )
        assert len(result) == _SHAPE["width"] // 20


@pytest.mark.benchmark(group="storage-e2e-query")
class TestEndToEndQuery:
    def test_cold_execute(self, benchmark, backend_workload):
        storage, workload = backend_workload
        spec = workload.spec(method="in_edge")

        def cold():
            with workload.open_session(EngineConfig(cache_graphs=False)) as s:
                return s.execute(spec)

        result = benchmark.pedantic(cold, rounds=3, iterations=2)
        assert len(result) > 0

    def test_warm_execute(self, benchmark, backend_workload):
        storage, workload = backend_workload
        spec = workload.spec(method="in_edge")
        session = workload.open_session()
        session.execute(spec)  # populate graph + score caches

        result = benchmark.pedantic(
            lambda: session.execute(spec), rounds=3, iterations=50
        )
        assert len(result) > 0
        stats = session.stats_snapshot()
        assert stats.graph_hits > 0
        assert stats.queries_executed == 1  # warm hits never touch storage


def _loadable_db(storage):
    db = Database("bulk-bench", storage=storage)
    db.create_table(
        "records",
        columns=[
            Column("id", ColumnType.TEXT),
            Column("w", ColumnType.FLOAT),
        ],
        primary_key=["id"],
    )
    return db


def _bulk_rows(n, offset=0):
    return [{"id": f"R{offset + i}", "w": float(i % 97)} for i in range(n)]


@pytest.mark.benchmark(group="storage-bulk-load")
class TestBulkLoad:
    """ROADMAP "backend-aware bulk loading": ``Database.insert_many``
    against the row-at-a-time loop it replaced — under SQLite the batch
    is a single ``executemany`` transaction instead of one implicit
    transaction per row. ``test_insert_many`` times it."""

    ROWS = 10_000

    @pytest.mark.parametrize("storage", STORAGE_BACKENDS)
    def test_insert_many(self, benchmark, storage):
        rows = _bulk_rows(self.ROWS)
        state = {}

        def setup():
            state["db"] = _loadable_db(storage)
            return (), {}

        def load():
            state["db"].insert_many("records", rows)

        benchmark.pedantic(load, setup=setup, rounds=3, iterations=1)
        assert len(state["db"].table("records")) == self.ROWS
        state["db"].close()

    def test_sqlite_bulk_is_one_executemany_transaction(self, monkeypatch):
        """What the bulk path does differently, pinned by the statements
        SQLite runs rather than by the clock: ``insert_many`` sends the
        batch as one ``executemany`` inside one explicit transaction,
        where the row-at-a-time loop autocommits every INSERT."""
        batches = []
        executemany = SQLiteStore.executemany

        def spy(store, sql, params_seq):
            batches.append(len(params_seq))
            return executemany(store, sql, params_seq)

        monkeypatch.setattr(SQLiteStore, "executemany", spy)
        rows = _bulk_rows(self.ROWS)

        def statements(load):
            """(first SQL keyword, inside an explicit transaction?) of
            every statement SQLite executes while ``load`` runs."""
            db = _loadable_db("sqlite")
            conn = db.table("records").backend._store._conn
            seen = []
            conn.set_trace_callback(
                lambda sql: seen.append((sql.split()[0], conn.in_transaction))
            )
            load(db)
            conn.set_trace_callback(None)
            assert len(db.table("records")) == self.ROWS
            db.close()
            return seen

        loop = statements(lambda db: [db.insert("records", row) for row in rows])
        assert loop == [("INSERT", False)] * self.ROWS
        assert batches == []
        bulk = statements(lambda db: db.insert_many("records", rows))
        assert batches == [self.ROWS]
        assert bulk == (
            [("BEGIN", False)]
            + [("INSERT", True)] * self.ROWS
            + [("COMMIT", True)]
        )


@pytest.mark.benchmark(group="storage-sqlite-100k")
class TestSQLiteScale:
    """The acceptance-scale run: 100k+ records on disk, one Session."""

    def test_cold_execute_100k(self, benchmark, sqlite_100k):
        spec = sqlite_100k.spec(method="in_edge")

        def cold():
            with sqlite_100k.open_session(
                EngineConfig(cache_graphs=False)
            ) as session:
                return session.execute(spec)

        result = benchmark.pedantic(cold, rounds=3, iterations=1)
        assert len(result) >= 200  # one answer per surviving seed chain

    def test_warm_execute_100k(self, benchmark, sqlite_100k):
        spec = sqlite_100k.spec(method="in_edge")
        session = sqlite_100k.open_session()
        cold = session.execute(spec)

        result = benchmark.pedantic(
            lambda: session.execute(spec), rounds=3, iterations=20
        )
        assert result.scores == cold.scores
        assert session.stats_snapshot().queries_executed == 1


#: scan-bound shape for the vectorized cold execute: wide unindexed
#: link tables, few seeds — graph materialisation is all probe scans
_SCAN_SHAPE = dict(
    layers=3, width=50_000, fan_out=2, seeds=20, rng=5, index_links=False
)


@pytest.mark.benchmark(group="storage-vectorized-speedup")
class TestVectorizedSpeedup:
    """Scan-bound graph materialisation on the vectorized backend's
    array probes."""

    def test_cold_execute_vectorized(self, benchmark):
        workload = mediated_layers(storage="vectorized", **_SCAN_SHAPE)
        spec = workload.spec(method="in_edge")

        def cold():
            with workload.open_session(
                EngineConfig(cache_graphs=False)
            ) as session:
                return session.execute(spec)

        result = benchmark.pedantic(cold, rounds=3, iterations=2)
        assert len(result) > 0


@pytest.fixture(scope="session")
def vectorized_100k_dir(tmp_path_factory):
    """A ≥100k-row table persisted as memory-mappable ``.npy`` columns."""
    path = tmp_path_factory.mktemp("bench-vec-100k") / "big"
    db = Database("big", storage="vectorized", storage_path=path)
    db.create_table(
        "t",
        columns=[Column("k", ColumnType.INT), Column("w", ColumnType.FLOAT)],
    )
    n = 150_000
    db.insert_many(
        "t", [{"k": i, "w": (i % 97) / 97.0} for i in range(n)]
    )
    db.close()
    return path, n


@pytest.mark.benchmark(group="storage-vectorized-attach")
class TestVectorizedAttach:
    """Cold attach of persisted layers reads only the manifest: columns
    stay memory-mapped, so attach latency is O(1) in row count and a
    point probe pages in just the blocks it touches."""

    def test_cold_attach_150k_rows(self, benchmark, vectorized_100k_dir):
        path, n = vectorized_100k_dir
        columns = [Column("k", ColumnType.INT), Column("w", ColumnType.FLOAT)]

        def attach_and_probe():
            db = Database("big", storage="vectorized", storage_path=path)
            table = db.create_table("t", columns)
            backend = table._backend
            assert len(table) == n
            # still mapped, not loaded — the O(1)-attach invariant
            assert isinstance(backend._cols["k"]._arr, np.memmap)
            assert isinstance(backend._cols["w"]._arr, np.memmap)
            row = table.lookup(("k",), (n - 1,))[0]
            db.close()  # untouched: close must not rewrite the files
            return row["w"]

        result = benchmark.pedantic(attach_and_probe, rounds=3, iterations=3)
        assert result == ((n - 1) % 97) / 97.0
