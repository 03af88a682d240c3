"""Backend-specific behaviour: persistence, invalidation, internals.

The shared Table semantics are covered by ``test_table.py`` (the whole
suite is parametrized over every backend); this module tests what is
*not* shared — SQLite persistence and re-attachment, NULL-key batch
probes, and the contract the
engine depends on: mutations through any backend bump ``Table.version``
and invalidate the engine's epoch-guarded query cache.
"""

import pytest

from repro.api import EngineConfig, open_session
from repro.errors import RankingError, StorageError
from repro.serving.__main__ import _build_parser
from repro.storage import (
    STORAGE_BACKENDS,
    Column,
    ColumnType,
    Database,
    SQLiteStore,
    Table,
    create_backend,
)
from repro.workloads import mediated_layers


def _gene_columns():
    return [
        Column("gid", ColumnType.TEXT),
        Column("chrom", ColumnType.INT, nullable=True),
        Column("active", ColumnType.BOOL),
    ]


class TestRegistry:
    def test_unknown_backend_rejected(self):
        with pytest.raises(StorageError, match="unknown storage backend"):
            create_backend("parquet")

    def test_database_validates_storage(self):
        with pytest.raises(StorageError, match="unknown storage backend"):
            Database("d", storage="parquet")

    def test_storage_path_requires_sqlite(self):
        with pytest.raises(StorageError, match="storage_path"):
            Database("d", storage="memory", storage_path="/tmp/x")

    @pytest.mark.parametrize("storage", STORAGE_BACKENDS)
    def test_table_reports_its_storage(self, storage):
        db = Database("d", storage=storage)
        table = db.create_table("t", _gene_columns())
        assert table.storage == storage
        assert db.storage == storage

    @pytest.mark.parametrize("storage", STORAGE_BACKENDS)
    def test_serving_cli_offers_every_backend(self, storage):
        assert _build_parser().parse_args(["--storage", storage]).storage == storage

    @pytest.mark.parametrize(
        "entry, error",
        [
            (lambda: _build_parser().parse_args(["--storage", "columnar"]), SystemExit),
            (lambda: EngineConfig(storage="columnar"), RankingError),
            (lambda: Database("d", storage="columnar"), StorageError),
            (lambda: create_backend("columnar"), StorageError),
        ],
        ids=["serving cli", "engine config", "database", "create_backend"],
    )
    def test_columnar_is_not_a_backend(self, entry, error, capsys):
        with pytest.raises(error):
            entry()
        assert "columnar" not in STORAGE_BACKENDS


class TestSQLitePersistence:
    def test_round_trip_through_a_file(self, tmp_path):
        path = tmp_path / "genes.sqlite"
        db = Database("genes", storage="sqlite", storage_path=path)
        table = db.create_table("genes", _gene_columns(), primary_key=["gid"])
        table.insert({"gid": "abcc8", "chrom": 11, "active": True})
        table.insert({"gid": "kir6", "chrom": None, "active": False})
        db.close()

        db2 = Database("genes", storage="sqlite", storage_path=path)
        table2 = db2.create_table("genes", _gene_columns(), primary_key=["gid"])
        assert len(table2) == 2
        assert [row["gid"] for row in table2.rows()] == ["abcc8", "kir6"]
        # types are restored, including BOOL and NULL
        row = table2.pk_lookup("abcc8")
        assert row["active"] is True and row["chrom"] == 11
        assert table2.pk_lookup("kir6")["chrom"] is None

    def test_reattach_continues_row_ids(self, tmp_path):
        path = tmp_path / "t.sqlite"
        db = Database("d", storage="sqlite", storage_path=path)
        table = db.create_table("t", _gene_columns())
        assert table.insert({"gid": "a", "active": True}) == 0
        assert table.insert({"gid": "b", "active": True}) == 1
        db.close()

        db2 = Database("d", storage="sqlite", storage_path=path)
        table2 = db2.create_table("t", _gene_columns())
        assert table2.insert({"gid": "c", "active": False}) == 2
        assert list(table2.row_ids()) == [0, 1, 2]

    def test_reattached_unique_index_still_enforced(self, tmp_path):
        from repro.errors import IntegrityError

        path = tmp_path / "t.sqlite"
        db = Database("d", storage="sqlite", storage_path=path)
        db.create_table("t", _gene_columns(), primary_key=["gid"]).insert(
            {"gid": "a", "active": True}
        )
        db.close()

        db2 = Database("d", storage="sqlite", storage_path=path)
        table2 = db2.create_table("t", _gene_columns(), primary_key=["gid"])
        with pytest.raises(IntegrityError):
            table2.insert({"gid": "a", "active": False})

    def test_schema_mismatch_on_reattach_rejected(self, tmp_path):
        path = tmp_path / "t.sqlite"
        db = Database("d", storage="sqlite", storage_path=path)
        db.create_table("t", _gene_columns()).insert({"gid": "a", "active": True})
        db.close()

        db2 = Database("d", storage="sqlite", storage_path=path)
        with pytest.raises(StorageError, match="schema migration is not supported"):
            db2.create_table("t", [Column("other", ColumnType.TEXT)])

    def test_retyped_column_on_reattach_rejected(self, tmp_path):
        path = tmp_path / "t.sqlite"
        db = Database("d", storage="sqlite", storage_path=path)
        db.create_table("t", [Column("x", ColumnType.TEXT)]).insert({"x": "hello"})
        db.close()

        db2 = Database("d", storage="sqlite", storage_path=path)
        with pytest.raises(StorageError, match="schema migration is not supported"):
            db2.create_table("t", [Column("x", ColumnType.BOOL)])

    def test_index_mismatch_on_reattach_rejected(self, tmp_path):
        path = tmp_path / "t.sqlite"
        db = Database("d", storage="sqlite", storage_path=path)
        db.create_table("t", _gene_columns()).create_index("by_gid", ["gid"])
        db.close()

        db2 = Database("d", storage="sqlite", storage_path=path)
        table2 = db2.create_table("t", _gene_columns())
        # same name, but now unique: must refuse, not silently no-op
        with pytest.raises(StorageError, match="already\\s+exists"):
            table2.create_index("by_gid", ["gid"], unique=True)
        # an exactly matching redeclaration is adopted
        handle = table2.create_index("by_gid2", ["gid"])
        assert len(handle) == 0

    def test_unopenable_path_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError, match="cannot open SQLite database"):
            Database(
                "d",
                storage="sqlite",
                storage_path=tmp_path / "missing" / "dir" / "d.sqlite",
            )

    def test_partial_persisted_layer_rejected(self, tmp_path):
        from repro.errors import ValidationError

        shape = dict(layers=2, width=6, fan_out=2, rng=7,
                     storage="sqlite", storage_path=tmp_path)
        workload = mediated_layers(**shape)
        ents = workload.mediator.entity_plan("E1").table
        ents.delete(next(iter(ents.row_ids())))  # truncate the artefact
        workload.close()
        with pytest.raises(ValidationError, match="truncated"):
            mediated_layers(**shape)

    def test_workload_storage_path_validated_before_mkdir(self, tmp_path):
        from repro.errors import ValidationError

        target = tmp_path / "should-not-exist"
        with pytest.raises(ValidationError, match="storage_path"):
            mediated_layers(layers=2, width=2, fan_out=1,
                            storage="memory", storage_path=target)
        assert not target.exists()

    def test_workload_rerun_adopts_persisted_layers(self, tmp_path):
        shape = dict(layers=2, width=6, fan_out=2, rng=7, seeds=2,
                     storage="sqlite", storage_path=tmp_path)
        first = mediated_layers(**shape)
        with first.open_session() as session:
            before = session.execute(first.spec(method="in_edge"))
        first.close()

        again = mediated_layers(**shape)  # same dir: adopt, don't regenerate
        assert again.total_records == first.total_records
        assert again.total_links == first.total_links
        with again.open_session() as session:
            after = session.execute(again.spec(method="in_edge"))
        assert after.scores == before.scores
        again.close()

    def test_tables_share_one_store(self, tmp_path):
        path = tmp_path / "db.sqlite"
        db = Database("d", storage="sqlite", storage_path=path)
        a = db.create_table("a", _gene_columns())
        b = db.create_table("b", _gene_columns())
        a.insert({"gid": "x", "active": True})
        b.insert({"gid": "y", "active": False})
        assert len(a) == 1 and len(b) == 1

    def test_large_batch_probe_chunks(self):
        # more keys than one IN-list chunk holds
        backend = create_backend("sqlite", SQLiteStore())
        table = Table("t", [Column("k", ColumnType.INT)], backend=backend)
        for i in range(50):
            table.insert({"k": i})
        keys = list(range(1000))
        grouped = table.lookup_many(("k",), keys)
        assert set(grouped) == set(range(50))
        assert table.lookup_in(("k",), keys) == set(range(50))

    def test_affinity_coercion_does_not_leak_matches(self):
        # SQLite's column affinity would match '7' against INTEGER 7;
        # the backend must re-check with Python == semantics so probes
        # behave exactly like the in-memory backends
        table = Table(
            "t",
            [Column("k", ColumnType.INT), Column("s", ColumnType.TEXT)],
            backend=create_backend("sqlite", SQLiteStore()),
        )
        table.insert({"k": 7, "s": "7"})
        assert table.lookup(("k",), ("7",)) == []
        assert table.lookup_many(("k",), ["7"]) == {}
        assert table.lookup_in(("k",), ["7"]) == set()
        assert table.lookup_in(("s",), [7]) == set()
        # while genuinely equal cross-type probes still match (1 == 1.0)
        assert len(table.lookup(("k",), (7.0,))) == 1

    def test_none_probe_keys_match_nulls(self):
        table = Table(
            "t",
            _gene_columns(),
            backend=create_backend("sqlite", SQLiteStore()),
        )
        table.insert({"gid": "a", "chrom": None, "active": True})
        table.insert({"gid": "b", "chrom": 7, "active": True})
        grouped = table.lookup_many(("chrom",), [None, 7, 8])
        assert set(grouped.keys()) == {None, 7}
        assert [r["gid"] for r in grouped[None]] == ["a"]
        assert table.lookup_in(("chrom",), [None, 8]) == {None}


@pytest.mark.parametrize("storage", STORAGE_BACKENDS)
class TestVersionAndEngineInvalidation:
    """Mutating through any backend bumps ``Table.version``, which feeds
    the mediator epoch and invalidates the engine's query cache."""

    def test_version_counts_mutations(self, storage):
        table = Table(
            "t", _gene_columns(), backend=create_backend(storage)
        )
        assert table.version == 0
        rid = table.insert({"gid": "a", "active": True})
        table.insert({"gid": "b", "active": False})
        assert table.version == 2
        table.delete(rid)
        assert table.version == 3

    def test_mutation_invalidates_query_cache(self, storage):
        workload = mediated_layers(
            layers=2, width=6, fan_out=2, rng=3, storage=storage
        )
        with workload.open_session() as session:
            spec = workload.spec(method="in_edge")
            before = session.execute(spec)
            assert session.execute(spec).scores == before.scores
            stats = session.stats_snapshot()
            assert stats.graph_hits == 1

            # grow the answer layer and relink the root to it: the delta
            # epochs move, the cached graph is brought current (repaired
            # from the change sets, or rebuilt cold), and the next
            # execution must see the new record
            plan = session.mediator.entity_plan("E1")
            ents = plan.table
            version_before = ents.version
            ents.insert({"id": "E1:new", "root": False, "w": 0.9})
            assert ents.version == version_before + 1
            links = session.mediator.entity_plan("E0").out[0].table
            links.insert({"src": "E0:0", "dst": "E1:new", "w": 0.8})

            after = session.execute(spec)
            stats = session.stats_snapshot()
            # not served stale: the entry was repaired or re-materialised
            assert stats.graph_misses + stats.graph_repairs >= 2
            assert ("E1", "E1:new") in after.scores
            assert ("E1", "E1:new") not in before.scores


class TestSessionPlumbing:
    def test_engine_config_validates_storage(self):
        with pytest.raises(RankingError, match="unknown storage backend"):
            EngineConfig(storage="parquet")
        with pytest.raises(RankingError, match="storage_path"):
            EngineConfig(storage="memory", storage_path="/tmp/x")

    def test_engine_config_round_trips_storage(self):
        config = EngineConfig(storage="sqlite", storage_path="/tmp/dbs")
        assert EngineConfig.from_dict(config.as_dict()) == config

    def test_session_creates_databases_on_configured_backend(self, tmp_path):
        config = EngineConfig(storage="sqlite", storage_path=str(tmp_path))
        with open_session(config=config) as session:
            db = session.create_database("sources")
            db.create_table("t", _gene_columns()).insert(
                {"gid": "a", "active": True}
            )
        assert (tmp_path / "sources.sqlite").exists()

    @pytest.mark.parametrize("storage", STORAGE_BACKENDS)
    def test_workload_generator_honours_storage(self, storage):
        workload = mediated_layers(layers=2, width=4, fan_out=1, rng=1, storage=storage)
        table = workload.mediator.entity_plan("E0").table
        assert table.storage == storage
