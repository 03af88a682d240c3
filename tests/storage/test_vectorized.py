"""Vectorized backend specifics: mmap persistence, O(1) attach, and the
selection-vector (``probe_positions`` / ``gather``) read surface.

The shared Table semantics are covered by ``test_table.py`` (the whole
suite runs on every backend, the vectorized one included); this module
tests what only the vectorized backend does — the ``.npy`` + manifest
directory layout, lazy memory-mapped re-attach, copy-on-write mutation
after attach, deferred index backfill, and the batch-columnar surface
the graph builders' fast path consumes.
"""

import json

import numpy as np
import pytest

from repro.api import EngineConfig, open_session
from repro.errors import StorageError, ValidationError
from repro.storage import (
    Column,
    ColumnType,
    Database,
    Table,
    create_backend,
)
from repro.workloads import mediated_layers


def _gene_columns():
    return [
        Column("gid", ColumnType.TEXT),
        Column("chrom", ColumnType.INT, nullable=True),
        Column("weight", ColumnType.FLOAT),
        Column("active", ColumnType.BOOL),
    ]


def _populate(table, n=5):
    return [
        table.insert(
            {
                "gid": f"g{i}",
                "chrom": None if i % 3 == 0 else i,
                "weight": i / 10.0,
                "active": i % 2 == 0,
            }
        )
        for i in range(n)
    ]


class TestPersistence:
    def test_round_trip_through_a_directory(self, tmp_path):
        path = tmp_path / "genes"
        db = Database("genes", storage="vectorized", storage_path=path)
        table = db.create_table("genes", _gene_columns(), primary_key=["gid"])
        ids = _populate(table)
        db.close()
        assert (path / "genes.manifest.json").exists()
        assert (path / "genes.c0.npy").exists()
        assert (path / "genes.ids.npy").exists()

        db2 = Database("genes", storage="vectorized", storage_path=path)
        again = db2.create_table("genes", _gene_columns(), primary_key=["gid"])
        assert len(again) == len(ids)
        assert [row["gid"] for row in again.rows()] == [f"g{i}" for i in range(5)]
        assert again.get(ids[3]) == table.get(ids[3])
        assert again.lookup(("chrom",), (None,)) == table.lookup(("chrom",), (None,))
        db2.close()

    def test_reattach_is_memory_mapped_and_lazy(self, tmp_path):
        path = tmp_path / "d"
        db = Database("d", storage="vectorized", storage_path=path)
        _populate(db.create_table("t", _gene_columns()))
        db.close()

        db2 = Database("d", storage="vectorized", storage_path=path)
        table = db2.create_table("t", _gene_columns())
        backend = table._backend
        assert backend._attached
        # numeric columns serve straight from the mapped files
        assert isinstance(backend._cols["weight"]._arr, np.memmap)
        # reads keep the attach (no copy-on-write)
        assert table.lookup(("gid",), ("g2",))[0]["weight"] == 0.2
        assert backend._attached
        # the first mutation materialises private arrays
        table.insert({"gid": "g9", "chrom": 9, "weight": 0.9, "active": False})
        assert not backend._attached
        assert not isinstance(backend._cols["weight"]._arr, np.memmap)
        db2.close()

    def test_untouched_attach_skips_rewrite(self, tmp_path):
        path = tmp_path / "d"
        db = Database("d", storage="vectorized", storage_path=path)
        _populate(db.create_table("t", _gene_columns()))
        db.close()
        manifest = path / "t.manifest.json"
        before = manifest.stat().st_mtime_ns

        db2 = Database("d", storage="vectorized", storage_path=path)
        table = db2.create_table("t", _gene_columns())
        list(table.rows())
        db2.close()  # read-only session: nothing to write back
        assert manifest.stat().st_mtime_ns == before

    def test_reattach_continues_row_ids(self, tmp_path):
        path = tmp_path / "d"
        db = Database("d", storage="vectorized", storage_path=path)
        table = db.create_table("t", _gene_columns())
        first = table.insert({"gid": "a", "weight": 0.1, "active": True})
        db.close()

        db2 = Database("d", storage="vectorized", storage_path=path)
        table2 = db2.create_table("t", _gene_columns())
        second = table2.insert({"gid": "b", "weight": 0.2, "active": True})
        assert second > first
        db2.close()

    def test_reattached_unique_index_backfills_on_first_write(self, tmp_path):
        from repro.errors import IntegrityError

        path = tmp_path / "d"
        db = Database("d", storage="vectorized", storage_path=path)
        table = db.create_table("t", _gene_columns())
        table.create_index("by_gid", ["gid"], unique=True)
        _populate(table)
        db.close()

        db2 = Database("d", storage="vectorized", storage_path=path)
        table2 = db2.create_table("t", _gene_columns())
        table2.create_index("by_gid", ["gid"], unique=True)
        # declared while attached: deferred, probes stay on the scan path
        assert table2._backend._pending_indexes
        assert [r["gid"] for r in table2.lookup(("gid",), ("g1",))] == ["g1"]
        with pytest.raises(IntegrityError):
            table2.insert(
                {"gid": "g1", "chrom": 1, "weight": 0.5, "active": True}
            )
        # the failed insert still backfilled (and kept) the index
        assert not table2._backend._pending_indexes
        assert len(table2) == 5
        db2.close()

    def test_schema_mismatch_on_reattach_rejected(self, tmp_path):
        path = tmp_path / "d"
        db = Database("d", storage="vectorized", storage_path=path)
        _populate(db.create_table("t", _gene_columns()))
        db.close()

        db2 = Database("d", storage="vectorized", storage_path=path)
        with pytest.raises(StorageError, match="schema migration"):
            db2.create_table("t", [Column("other", ColumnType.TEXT)])

    def test_retyped_column_on_reattach_rejected(self, tmp_path):
        path = tmp_path / "d"
        db = Database("d", storage="vectorized", storage_path=path)
        _populate(db.create_table("t", _gene_columns()))
        db.close()

        retyped = _gene_columns()
        retyped[2] = Column("weight", ColumnType.INT)  # was FLOAT
        db2 = Database("d", storage="vectorized", storage_path=path)
        with pytest.raises(StorageError, match="persisted as"):
            db2.create_table("t", retyped)

    def test_corrupt_manifest_rejected(self, tmp_path):
        path = tmp_path / "d"
        db = Database("d", storage="vectorized", storage_path=path)
        _populate(db.create_table("t", _gene_columns()))
        db.close()
        (path / "t.manifest.json").write_text("{not json")

        db2 = Database("d", storage="vectorized", storage_path=path)
        with pytest.raises(StorageError, match="unreadable vectorized manifest"):
            db2.create_table("t", _gene_columns())

    def test_int_promotion_survives_round_trip(self, tmp_path):
        huge = 2**70  # beyond int64: the column promotes to dict encoding
        path = tmp_path / "d"
        db = Database("d", storage="vectorized", storage_path=path)
        table = db.create_table("t", [Column("k", ColumnType.INT)])
        table.insert({"k": 1})
        table.insert({"k": huge})
        assert [row["k"] for row in table.rows()] == [1, huge]
        db.close()
        manifest = json.loads((path / "t.manifest.json").read_text())
        assert manifest["columns"][0]["kind"] == "dict"

        db2 = Database("d", storage="vectorized", storage_path=path)
        table2 = db2.create_table("t", [Column("k", ColumnType.INT)])
        assert [row["k"] for row in table2.rows()] == [1, huge]
        assert [r["k"] for r in table2.lookup(("k",), (huge,))] == [huge]
        db2.close()


class TestColumnarSurface:
    def test_probe_positions_and_gather(self):
        table = Table("t", _gene_columns(), backend=create_backend("vectorized"))
        _populate(table)
        assert table.supports_columnar
        groups = table.probe_positions(("gid",), ["g1", "g3", "missing"])
        assert set(groups) == {"g1", "g3"}
        positions = np.concatenate([groups["g1"], groups["g3"]])
        weights, active = table.gather(("weight", "active"), positions)
        assert weights.tolist() == [0.1, 0.3]
        assert active.tolist() == [False, False]

    def test_probe_positions_agree_with_lookup_many(self):
        table = Table("t", _gene_columns(), backend=create_backend("vectorized"))
        _populate(table, n=8)
        keys = ["g0", "g5", None, "zzz"]
        groups = table.probe_positions(("gid",), keys)
        rows = table.lookup_many(("gid",), keys)
        assert set(groups) == set(rows)
        for key, positions in groups.items():
            gids, weights = table.gather(("gid", "weight"), positions)
            assert gids.tolist() == [row["gid"] for row in rows[key]]
            assert weights.tolist() == [row["weight"] for row in rows[key]]

    @pytest.mark.parametrize("storage", ["memory", "sqlite"])
    def test_other_backends_have_no_columnar_surface(self, storage):
        table = Table("t", _gene_columns(), backend=create_backend(storage))
        assert not table.supports_columnar
        with pytest.raises(StorageError, match="no columnar read surface"):
            table.probe_positions(("gid",), ["g0"])
        with pytest.raises(StorageError, match="no columnar read surface"):
            table.gather(("gid",), np.array([0]))

    def test_shard_views_disable_the_columnar_surface(self):
        from repro.integration.partition import ShardTableView

        assert ShardTableView.supports_columnar is False


class TestSessionAndWorkloadPlumbing:
    def test_engine_config_accepts_vectorized_storage_path(self, tmp_path):
        config = EngineConfig(storage="vectorized", storage_path=str(tmp_path))
        assert EngineConfig.from_dict(config.as_dict()) == config
        db = config.make_database("sources")
        db.create_table("t", _gene_columns()).insert(
            {"gid": "a", "weight": 0.5, "active": True}
        )
        db.close()
        assert (tmp_path / "sources" / "t.manifest.json").exists()

    def test_session_creates_databases_on_vectorized_backend(self, tmp_path):
        config = EngineConfig(storage="vectorized", storage_path=str(tmp_path))
        with open_session(config=config) as session:
            db = session.create_database("sources")
            db.create_table("t", _gene_columns()).insert(
                {"gid": "a", "weight": 0.5, "active": True}
            )
            db.close()
        assert (tmp_path / "sources" / "t.manifest.json").exists()

    def test_workload_round_trip_reattaches_and_ranks_identically(self, tmp_path):
        shape = dict(layers=3, width=8, fan_out=2, rng=7, seeds=2,
                     storage="vectorized", storage_path=tmp_path)
        first = mediated_layers(**shape)
        with first.open_session() as session:
            before = session.execute(first.spec(method="path_count"))
        first.close()
        assert (tmp_path / "layer0" / "ents.manifest.json").exists()

        again = mediated_layers(**shape)  # same dir: adopt, don't regenerate
        assert again.total_records == first.total_records
        assert again.total_links == first.total_links
        # adopted layers serve straight from the mapped files
        assert again.mediator.entity_plan("E1").table._backend._attached
        with again.open_session() as session:
            after = session.execute(again.spec(method="path_count"))
        assert after.scores == before.scores
        assert [r.rank_interval for r in after] == [r.rank_interval for r in before]
        again.close()

    def test_partial_persisted_layer_rejected(self, tmp_path):
        shape = dict(layers=2, width=6, fan_out=2, rng=7,
                     storage="vectorized", storage_path=tmp_path)
        workload = mediated_layers(**shape)
        ents = workload.mediator.entity_plan("E1").table
        ents.delete(next(iter(ents.row_ids())))  # truncate the artefact
        workload.close()
        with pytest.raises(ValidationError, match="truncated"):
            mediated_layers(**shape)

    def test_large_layer_reattach_does_not_load_columns(self, tmp_path):
        """Re-attaching a persisted layer keeps columns memory-mapped:
        attach reads only the manifest, so it stays O(1) in row count."""
        path = tmp_path / "big"
        db = Database("big", storage="vectorized", storage_path=path)
        table = db.create_table(
            "t", [Column("k", ColumnType.INT), Column("w", ColumnType.FLOAT)]
        )
        n = 100_000
        table.insert_many(
            [{"k": i, "w": (i % 100) / 100.0} for i in range(n)]
        )
        db.close()

        db2 = Database("big", storage="vectorized", storage_path=path)
        table2 = db2.create_table(
            "t", [Column("k", ColumnType.INT), Column("w", ColumnType.FLOAT)]
        )
        backend = table2._backend
        assert len(table2) == n
        assert backend._attached
        assert isinstance(backend._cols["k"]._arr, np.memmap)
        assert isinstance(backend._cols["w"]._arr, np.memmap)
        # a point probe pages in only what it touches and answers right
        assert table2.lookup(("k",), (99_999,))[0]["w"] == 0.99
        assert backend._attached  # still serving from the mapped files
        db2.close()
