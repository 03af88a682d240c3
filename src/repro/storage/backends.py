"""Pluggable storage backends behind the :class:`~repro.storage.table.Table` facade.

A backend owns the physical representation of one table's rows and
indexes; the facade keeps everything logical — schema validation, type
coercion, foreign-key metadata, the ``version`` mutation counter the
engine's epoch invalidation watches. Three implementations share the
protocol:

* :class:`MemoryBackend` (``"memory"``, the default) — rows as Python
  dicts plus :class:`~repro.storage.index.HashIndex` buckets; exactly
  the pre-backend semantics and performance.
* :class:`~repro.storage.sqlite.SQLiteBackend` (``"sqlite"``) — rows
  persisted to a SQLite file (or a private in-memory database) with SQL
  indexes on the key columns; batch lookups run as chunked
  ``SELECT ... IN`` queries.
* :class:`~repro.storage.vectorized.VectorizedColumnarBackend`
  (``"vectorized"``) — dtype-typed numpy columns with vectorized
  predicate evaluation, an optional batch-columnar read surface
  (:meth:`StorageBackend.probe_positions` /
  :meth:`StorageBackend.gather` returning selection vectors instead of
  row dicts) and mmap persistence.

Every backend must preserve the facade's observable contract: rows in
insertion order (``ORDER BY rowid`` for SQLite), index buckets in
insertion order, atomic inserts under unique-index violations, and the
``lookup_many``/``lookup_in`` batch grouping rules — the cross-backend
property suite asserts identical graphs, ``BuildStats`` and rankings on
randomized mediated schemas.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Any,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import IntegrityError, StorageError
from repro.storage.column import Column
from repro.storage.index import HashIndex

__all__ = [
    "HashIndexedBackend",
    "MemoryBackend",
    "STORAGE_BACKENDS",
    "StorageBackend",
    "create_backend",
]

#: the storage backends ``Database``/``EngineConfig`` accept
STORAGE_BACKENDS: Tuple[str, ...] = ("memory", "sqlite", "vectorized")


class StorageBackend(ABC):
    """The physical-storage protocol one table binds to.

    ``bind`` is called exactly once, by the owning
    :class:`~repro.storage.table.Table`'s constructor, before any other
    method. Rows passed to :meth:`insert` are already validated and
    coerced by the facade; rows handed back are plain dicts — the facade
    wraps them read-only. Probe keys follow the facade's convention:
    bare values for single-column probes, value tuples otherwise.
    """

    #: registry name (``"memory"`` / ``"sqlite"`` / ``"vectorized"``)
    name: str = "?"

    #: True when the backend serves the optional batch-columnar read
    #: surface (:meth:`probe_positions` / :meth:`gather`); consumers
    #: must check this before calling either method.
    supports_columnar: bool = False

    @abstractmethod
    def bind(self, table_name: str, columns: Tuple[Column, ...]) -> None:
        """Attach to the owning table's schema (create physical storage)."""

    def next_row_id(self) -> int:
        """The first row id the facade should assign (non-zero when the
        backend re-attached to persisted rows)."""
        return 0

    @abstractmethod
    def create_index(self, name: str, columns: Tuple[str, ...], unique: bool):
        """Create and backfill an index; returns a sized handle.

        A unique index over existing duplicate keys must fail without
        registering the index.
        """

    @abstractmethod
    def insert(self, row_id: int, row: Dict[str, Any]) -> None:
        """Store ``row`` under ``row_id``; atomic under unique violations."""

    def insert_rows(self, rows: Sequence[Tuple[int, Dict[str, Any]]]) -> None:
        """Bulk insert: store every ``(row_id, row)`` pair, atomically —
        a failure rolls the whole batch back.

        The default loops :meth:`insert` and undoes the inserted prefix
        on error; backends with a cheaper bulk path (one SQLite
        transaction with ``executemany``) override it.
        """
        inserted: List[int] = []
        try:
            for row_id, row in rows:
                self.insert(row_id, row)
                inserted.append(row_id)
        except Exception:
            for row_id in reversed(inserted):
                self.delete(row_id)
            raise

    def update(self, row_id: int, row: Dict[str, Any]) -> None:
        """Replace the row stored under ``row_id`` with ``row``.

        The row keeps its id and its position in insertion order (and
        within index buckets — see
        :meth:`~repro.storage.index.HashIndex.add_sorted`); atomic under
        unique violations. Backends that predate the update protocol may
        leave this unimplemented."""
        raise StorageError(
            f"storage backend {self.name!r} does not support update"
        )

    @abstractmethod
    def delete(self, row_id: int) -> None:
        """Remove the row; :class:`StorageError` when the id is unknown."""

    @abstractmethod
    def get(self, row_id: int) -> Optional[Dict[str, Any]]:
        """The row stored under ``row_id`` (``None`` when absent)."""

    @abstractmethod
    def rows(self) -> Iterator[Dict[str, Any]]:
        """All rows in insertion order."""

    @abstractmethod
    def row_ids(self) -> Iterator[int]:
        """All row ids in insertion order."""

    @abstractmethod
    def lookup(
        self, columns: Tuple[str, ...], values: Tuple[Any, ...]
    ) -> List[Dict[str, Any]]:
        """Rows where ``columns`` equal ``values``, in insertion order."""

    @abstractmethod
    def lookup_many(
        self, columns: Tuple[str, ...], keys: Sequence[Hashable]
    ) -> Dict[Hashable, List[Dict[str, Any]]]:
        """Batch equality probe grouping matching rows by probe key
        (misses omitted); one physical pass where possible."""

    @abstractmethod
    def lookup_in(
        self, columns: Tuple[str, ...], keys: Sequence[Hashable]
    ) -> Set[Hashable]:
        """The subset of ``keys`` with at least one matching row."""

    @abstractmethod
    def __len__(self) -> int: ...

    def close(self) -> None:
        """Release physical resources (no-op for in-process backends)."""

    # -- optional batch-columnar read surface -------------------------- #

    def probe_positions(self, columns: Tuple[str, ...], keys: Sequence[Hashable]):
        """Batch equality probe returning *selection vectors*: a mapping
        from probe key to the array of matching row positions (misses
        omitted). Only meaningful when :attr:`supports_columnar`."""
        raise StorageError(
            f"storage backend {self.name!r} has no columnar read surface"
        )

    def gather(self, columns: Tuple[str, ...], positions):
        """Column values at ``positions`` as one array per column.
        Only meaningful when :attr:`supports_columnar`."""
        raise StorageError(
            f"storage backend {self.name!r} has no columnar read surface"
        )


class HashIndexedBackend(StorageBackend):
    """Shared :class:`~repro.storage.index.HashIndex` machinery for the
    in-process backends (memory, vectorized): index registry/probing and
    the atomic add-to-all-indexes-with-rollback insert step."""

    def __init__(self) -> None:
        self._table_name = "?"
        self._indexes: Dict[str, HashIndex] = {}

    def _index_on(self, columns: Tuple[str, ...]) -> Optional[HashIndex]:
        for index in self._indexes.values():
            if index.columns == columns:
                return index
        return None

    def _add_to_indexes(self, row: Dict[str, Any], row_id: int) -> None:
        """Register ``row_id`` in every index, atomically: a unique
        violation rolls back the additions already made and re-raises."""
        added: List[Tuple[HashIndex, Any]] = []
        try:
            for index in self._indexes.values():
                key = index.key_for(row)
                index.add(key, row_id)
                added.append((index, key))
        except IntegrityError:
            for index, key in added:
                index.remove(key, row_id)
            raise

    def _remove_from_indexes(self, row: Dict[str, Any], row_id: int) -> None:
        for index in self._indexes.values():
            index.remove(index.key_for(row), row_id)

    def _update_indexes(
        self, old_row: Dict[str, Any], new_row: Dict[str, Any], row_id: int
    ) -> None:
        """Re-key ``row_id`` from ``old_row`` to ``new_row`` in every
        index, atomically: a unique violation restores every swapped key
        (at its sorted bucket position) and re-raises."""
        swapped: List[Tuple[HashIndex, Any, Any]] = []
        try:
            for index in self._indexes.values():
                old_key = index.key_for(old_row)
                new_key = index.key_for(new_row)
                if old_key == new_key:
                    continue
                index.remove(old_key, row_id)
                try:
                    index.add_sorted(new_key, row_id)
                except IntegrityError:
                    index.add_sorted(old_key, row_id)
                    raise
                swapped.append((index, old_key, new_key))
        except IntegrityError:
            for index, old_key, new_key in reversed(swapped):
                index.remove(new_key, row_id)
                index.add_sorted(old_key, row_id)
            raise


class MemoryBackend(HashIndexedBackend):
    """Dict-backed rows plus hash indexes — the original representation."""

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._rows: Dict[int, Dict[str, Any]] = {}

    def bind(self, table_name: str, columns: Tuple[Column, ...]) -> None:
        self._table_name = table_name

    def create_index(
        self, name: str, columns: Tuple[str, ...], unique: bool
    ) -> HashIndex:
        index = HashIndex(name, columns, unique=unique)
        for row_id, row in self._rows.items():
            index.add(index.key_for(row), row_id)
        self._indexes[name] = index
        return index

    def insert(self, row_id: int, row: Dict[str, Any]) -> None:
        self._add_to_indexes(row, row_id)
        self._rows[row_id] = row

    def update(self, row_id: int, row: Dict[str, Any]) -> None:
        old = self._rows.get(row_id)
        if old is None:
            raise StorageError(
                f"table {self._table_name!r} has no row id {row_id}"
            )
        self._update_indexes(old, row, row_id)
        # dict-key overwrite keeps insertion order
        self._rows[row_id] = row

    def delete(self, row_id: int) -> None:
        row = self._rows.pop(row_id, None)
        if row is None:
            raise StorageError(
                f"table {self._table_name!r} has no row id {row_id}"
            )
        self._remove_from_indexes(row, row_id)

    def get(self, row_id: int) -> Optional[Dict[str, Any]]:
        return self._rows.get(row_id)

    def rows(self) -> Iterator[Dict[str, Any]]:
        return iter(self._rows.values())

    def row_ids(self) -> Iterator[int]:
        return iter(self._rows.keys())

    def lookup(
        self, columns: Tuple[str, ...], values: Tuple[Any, ...]
    ) -> List[Dict[str, Any]]:
        index = self._index_on(columns)
        if index is not None:
            key = values[0] if len(values) == 1 else tuple(values)
            return [self._rows[rid] for rid in index.lookup(key)]
        wanted = dict(zip(columns, values))
        return [
            row
            for row in self._rows.values()
            if all(row[c] == v for c, v in wanted.items())
        ]

    def lookup_many(
        self, columns: Tuple[str, ...], keys: Sequence[Hashable]
    ) -> Dict[Hashable, List[Dict[str, Any]]]:
        rows = self._rows
        index = self._index_on(columns)
        if index is not None:
            return {
                key: [rows[rid] for rid in rids]
                for key, rids in index.lookup_many(keys).items()
            }
        wanted = set(keys)
        grouped: Dict[Hashable, List[Dict[str, Any]]] = {}
        single = len(columns) == 1
        column = columns[0]
        for row in rows.values():
            key = row[column] if single else tuple(row[c] for c in columns)
            if key in wanted:
                grouped.setdefault(key, []).append(row)
        return grouped

    def lookup_in(
        self, columns: Tuple[str, ...], keys: Sequence[Hashable]
    ) -> Set[Hashable]:
        index = self._index_on(columns)
        if index is not None:
            return index.contains_many(keys)
        wanted = set(keys)
        present: Set[Hashable] = set()
        single = len(columns) == 1
        column = columns[0]
        for row in self._rows.values():
            key = row[column] if single else tuple(row[c] for c in columns)
            if key in wanted:
                present.add(key)
                if len(present) == len(wanted):
                    break
        return present

    def __len__(self) -> int:
        return len(self._rows)


def create_backend(
    storage: str = "memory",
    store: Optional[object] = None,
) -> StorageBackend:
    """Instantiate the backend named ``storage`` for one table.

    The backend learns its table's name and schema when the owning
    :class:`~repro.storage.table.Table` binds it. ``store`` is the
    database-level shared resource (the
    :class:`~repro.storage.sqlite.SQLiteStore` holding the connection)
    for backends that have one; in-process backends ignore it.
    """
    if storage == "memory":
        return MemoryBackend()
    if storage == "vectorized":
        from repro.storage.vectorized import (
            VectorizedColumnarBackend,
            VectorizedStore,
        )

        if store is not None and not isinstance(store, VectorizedStore):
            raise StorageError(
                f"vectorized backend needs a VectorizedStore, "
                f"got {type(store).__name__}"
            )
        return VectorizedColumnarBackend(store=store)
    if storage == "sqlite":
        from repro.storage.sqlite import SQLiteBackend, SQLiteStore

        if store is not None and not isinstance(store, SQLiteStore):
            raise StorageError(
                f"sqlite backend needs a SQLiteStore, got {type(store).__name__}"
            )
        return SQLiteBackend(store=store)
    raise StorageError(
        f"unknown storage backend {storage!r}; choose from {list(STORAGE_BACKENDS)}"
    )
