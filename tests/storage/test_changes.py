"""Change tracking: the bounded per-table log, change-set coalescing,
and the update/delete surface that feeds it — on every backend."""

import sys
import threading
import time

import pytest

from repro.errors import IntegrityError, StorageError
from repro.storage import (
    ChangeSet,
    Column,
    ColumnType,
    STORAGE_BACKENDS,
    Table,
    TableChangeLog,
)
from repro.storage.backends import create_backend
from repro.storage.changes import FULL_CHANGE_SET


def _columns():
    return [
        Column("gid", ColumnType.TEXT),
        Column("score", ColumnType.FLOAT),
    ]


def _table(storage):
    return Table(
        "genes",
        _columns(),
        primary_key=["gid"],
        backend=create_backend(storage),
    )


class TestChangeSet:
    def test_empty_is_falsy(self):
        empty = ChangeSet()
        assert empty.is_empty
        assert not empty

    def test_full_is_truthy_even_without_rows(self):
        assert FULL_CHANGE_SET.full
        assert not FULL_CHANGE_SET.is_empty
        assert FULL_CHANGE_SET

    def test_any_component_makes_it_nonempty(self):
        assert ChangeSet(inserted=(1,))
        assert ChangeSet(updated={1: {"gid": "a"}})
        assert ChangeSet(deleted={1: {"gid": "a"}})


class TestTableChangeLog:
    def test_clean_window_is_empty(self):
        log = TableChangeLog()
        log.record(1, "insert", 10, None)
        assert log.changes_since(1).is_empty

    def test_insert_then_delete_cancels(self):
        log = TableChangeLog()
        log.record(1, "insert", 10, None)
        log.record(2, "delete", 10, {"gid": "a"})
        assert log.changes_since(0).is_empty

    def test_insert_then_update_stays_an_insert(self):
        log = TableChangeLog()
        log.record(1, "insert", 10, None)
        log.record(2, "update", 10, {"gid": "a", "score": 1.0})
        changes = log.changes_since(0)
        assert changes.inserted == (10,)
        assert changes.updated == {}

    def test_repeated_update_keeps_earliest_pre_image(self):
        log = TableChangeLog()
        log.record(1, "update", 10, {"score": 1.0})
        log.record(2, "update", 10, {"score": 2.0})
        assert log.changes_since(0).updated == {10: {"score": 1.0}}

    def test_update_then_delete_becomes_delete_with_earliest_pre_image(self):
        log = TableChangeLog()
        log.record(1, "update", 10, {"score": 1.0})
        log.record(2, "delete", 10, {"score": 2.0})
        changes = log.changes_since(0)
        assert changes.updated == {}
        assert changes.deleted == {10: {"score": 1.0}}

    def test_window_excludes_older_entries(self):
        log = TableChangeLog()
        log.record(1, "insert", 10, None)
        log.record(2, "insert", 11, None)
        assert log.changes_since(1).inserted == (11,)

    def test_overflow_answers_full_for_trimmed_windows(self):
        log = TableChangeLog(limit=2)
        for version in (1, 2, 3):
            log.record(version, "insert", version, None)
        # version-1 entry was trimmed: windows reaching past it are dirty
        assert log.changes_since(0).full
        # recent windows still answer precisely
        assert log.changes_since(1).inserted == (2, 3)
        assert log.changes_since(3).is_empty

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            TableChangeLog(limit=0)


@pytest.mark.parametrize("storage", STORAGE_BACKENDS)
class TestTableUpdates:
    def test_update_rewrites_row_in_place(self, storage):
        table = _table(storage)
        rid = table.insert({"gid": "a", "score": 1.0})
        table.insert({"gid": "b", "score": 2.0})
        table.update(rid, {"score": 9.0})
        assert table.get(rid) == {"gid": "a", "score": 9.0}
        # row order is untouched: update is positional, not delete+insert
        assert [row["gid"] for row in table.rows()] == ["a", "b"]

    def test_update_re_keys_indexes(self, storage):
        table = _table(storage)
        rid = table.insert({"gid": "a", "score": 1.0})
        table.update(rid, {"gid": "z"})
        assert table.lookup(("gid",), ("z",)) == [{"gid": "z", "score": 1.0}]
        assert table.lookup(("gid",), ("a",)) == []

    def test_update_unique_violation_rolls_back(self, storage):
        table = _table(storage)
        rid = table.insert({"gid": "a", "score": 1.0})
        table.insert({"gid": "b", "score": 2.0})
        with pytest.raises(IntegrityError):
            table.update(rid, {"gid": "b"})
        assert table.get(rid) == {"gid": "a", "score": 1.0}
        assert len(table.lookup(("gid",), ("a",))) == 1

    def test_update_rejects_unknown_column_and_empty_changes(self, storage):
        table = _table(storage)
        rid = table.insert({"gid": "a", "score": 1.0})
        with pytest.raises(StorageError):
            table.update(rid, {"nope": 1})
        with pytest.raises(StorageError):
            table.update(rid, {})

    def test_update_unknown_row_id(self, storage):
        table = _table(storage)
        with pytest.raises(StorageError):
            table.update(999, {"score": 1.0})

    def test_update_many_is_one_batch(self, storage):
        table = _table(storage)
        rids = table.insert_many(
            [{"gid": f"g{i}", "score": float(i)} for i in range(4)]
        )
        version = table.version
        table.update_many({rids[0]: {"score": 10.0}, rids[2]: {"score": 12.0}})
        assert table.version == version + 2
        changes = table.changes_since(version)
        assert set(changes.updated) == {rids[0], rids[2]}

    def test_update_many_rolls_back_all_on_failure(self, storage):
        table = _table(storage)
        rids = table.insert_many(
            [{"gid": "a", "score": 1.0}, {"gid": "b", "score": 2.0}]
        )
        version = table.version
        with pytest.raises(IntegrityError):
            table.update_many(
                {rids[0]: {"score": 7.0}, rids[1]: {"gid": "a"}}
            )
        assert table.get(rids[0]) == {"gid": "a", "score": 1.0}
        assert table.get(rids[1]) == {"gid": "b", "score": 2.0}
        assert table.version == version
        assert table.changes_since(version).is_empty


@pytest.mark.parametrize("storage", STORAGE_BACKENDS)
class TestTableChangeTracking:
    def test_inserts_and_deletes_are_logged(self, storage):
        table = _table(storage)
        version = table.version
        rid_a = table.insert({"gid": "a", "score": 1.0})
        rid_b = table.insert({"gid": "b", "score": 2.0})
        table.delete(rid_a)
        changes = table.changes_since(version)
        assert changes.inserted == (rid_b,)  # a's insert+delete cancelled
        assert changes.deleted == {}
        assert not changes.full

    def test_delete_pre_image_preserved(self, storage):
        table = _table(storage)
        rid = table.insert({"gid": "a", "score": 1.0})
        version = table.version
        table.delete(rid)
        assert table.changes_since(version).deleted == {
            rid: {"gid": "a", "score": 1.0}
        }

    def test_update_pre_image_is_a_stable_snapshot(self, storage):
        """The pre-image must not alias live backend storage: further
        updates to the row may not mutate it retroactively."""
        table = _table(storage)
        rid = table.insert({"gid": "a", "score": 1.0})
        version = table.version
        table.update(rid, {"score": 2.0})
        table.update(rid, {"score": 3.0})
        changes = table.changes_since(version)
        assert changes.updated[rid]["score"] == 1.0

    def test_overflow_degrades_to_full(self, storage):
        table = _table(storage)
        version = table.version
        table.change_log.limit = 2
        for i in range(4):
            table.insert({"gid": f"g{i}", "score": float(i)})
        assert table.changes_since(version).full
        # a recent window is still precise
        assert not table.changes_since(table.version - 1).full


class TestConcurrentReaders:
    """Readers diffing the log while a writer refreshes the table.

    A tiny switch interval makes the interpreter preempt threads almost
    every bytecode, so a reader lands inside a writer's mutation often.
    Two failures are possible without the table's log lock: iterating
    the log's deque while it is appended to raises ``RuntimeError``,
    and a version published before its log entries lets a reader see
    the new version but an empty delta for it — the stale-graph bug.
    """

    def test_published_versions_always_have_their_entries(self):
        table = _table("memory")
        rids = table.insert_many(
            [{"gid": f"g{i}", "score": 0.0} for i in range(8)]
        )
        stop = threading.Event()
        errors = []
        reads = [0]

        def writer():
            step = 0
            while not stop.is_set():
                step += 1
                table.update_many(
                    {rid: {"score": float(step)} for rid in rids}
                )

        def reader():
            try:
                while not stop.is_set():
                    seen = table.version
                    # every version a reader can see is already logged
                    if not table.changes_since(seen - 1):
                        errors.append(f"version {seen} published unlogged")
                    # a full-window diff walks the whole deque
                    table.changes_since(0)
                    reads[0] += 1
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(repr(exc))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, daemon=True)]
            threads += [
                threading.Thread(target=reader, daemon=True) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(1.5)
            stop.set()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert reads[0] > 0
        assert errors == []
