"""Tables: typed rows, primary keys, secondary indexes, foreign keys.

:class:`Table` is a thin facade: it owns everything *logical* — schema
validation, type coercion, key/probe normalisation, the ``version``
mutation counter the engine's epoch invalidation watches — and
delegates the physical representation to a pluggable
:class:`~repro.storage.backends.StorageBackend` (in-memory dicts by
default; SQLite persistence and numpy columns via
``Database(storage=...)``). All backends serve the same batch contract
(:meth:`Table.lookup_many` / :meth:`Table.lookup_in`), so the mediator,
graph builders and engine caches work identically across them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import StorageError
from repro.storage.backends import MemoryBackend, StorageBackend
from repro.storage.changes import ChangeSet, TableChangeLog
from repro.storage.column import Column

__all__ = ["ForeignKey", "Row", "Table"]

#: Rows are exposed to callers as read-only mappings.
Row = Mapping[str, Any]


@dataclass(frozen=True)
class ForeignKey:
    """Declares that ``columns`` of this table reference ``ref_columns`` of
    table ``ref_table``. Enforced on insert by :class:`~repro.storage.database.Database`."""

    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.ref_columns):
            raise StorageError(
                f"foreign key column count mismatch: {self.columns} -> {self.ref_columns}"
            )


class Table:
    """A typed table with constraint checking over a storage backend.

    Rows are handed out wrapped in :class:`types.MappingProxyType`, so
    callers cannot mutate stored data behind the backend's back.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Optional[Sequence[str]] = None,
        foreign_keys: Sequence[ForeignKey] = (),
        backend: Optional[StorageBackend] = None,
    ):
        if not columns:
            raise StorageError(f"table {name!r} needs at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise StorageError(f"table {name!r} has duplicate column names")

        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._columns_by_name: Dict[str, Column] = {c.name: c for c in columns}
        self.foreign_keys: Tuple[ForeignKey, ...] = tuple(foreign_keys)
        self._backend = backend if backend is not None else MemoryBackend()
        self._backend.bind(name, self.columns)
        self._index_names: Set[str] = set()
        #: logical index metadata (name -> (columns, unique)), kept at
        #: the facade so planners can ask :meth:`has_index` without
        #: reaching into backend internals
        self._index_specs: Dict[str, Tuple[Tuple[str, ...], bool]] = {}
        #: first free row id (non-zero when a persistent backend
        #: re-attached to existing rows)
        self._next_row_id = self._backend.next_row_id()
        #: monotone mutation counter (bumped on insert/update/delete);
        #: consumers such as the engine's query cache use it for cheap
        #: staleness checks
        self.version = 0
        #: bounded row-level mutation log behind :meth:`changes_since`
        self._change_log = TableChangeLog()
        #: serialises log appends + version publication against
        #: :meth:`changes_since`, so a reader never iterates a deque
        #: being appended to, and never sees a version whose log
        #: entries are not recorded yet
        self._log_lock = threading.Lock()

        self.primary_key: Optional[Tuple[str, ...]] = None
        if primary_key:
            self.primary_key = tuple(primary_key)
            self._require_columns(self.primary_key, "primary key")
            self.create_index("__pk__", self.primary_key, unique=True)
        for fk in self.foreign_keys:
            self._require_columns(fk.columns, f"foreign key to {fk.ref_table!r}")

    # ------------------------------------------------------------------ #
    # schema helpers
    # ------------------------------------------------------------------ #

    @property
    def backend(self) -> StorageBackend:
        """The physical storage this table delegates to."""
        return self._backend

    @property
    def storage(self) -> str:
        """The backend's registry name (``"memory"``/``"sqlite"``/...)."""
        return self._backend.name

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def _require_columns(self, names: Sequence[str], context: str) -> None:
        for name in names:
            if name not in self._columns_by_name:
                raise StorageError(
                    f"table {self.name!r}: {context} references unknown column {name!r}"
                )

    def create_index(self, name: str, columns: Sequence[str], unique: bool = False):
        """Create (and backfill) a named index over ``columns``.

        The returned handle is sized (``len()`` = indexed entries); its
        concrete type depends on the backend (a
        :class:`~repro.storage.index.HashIndex` in memory, a SQL index
        handle under SQLite).
        """
        if name in self._index_names:
            raise StorageError(f"table {self.name!r} already has index {name!r}")
        self._require_columns(columns, f"index {name!r}")
        handle = self._backend.create_index(name, tuple(columns), unique)
        self._index_names.add(name)
        self._index_specs[name] = (tuple(columns), unique)
        return handle

    @property
    def indexes(self) -> Mapping[str, Tuple[Tuple[str, ...], bool]]:
        """Declared indexes: name -> (column tuple, unique flag)."""
        return MappingProxyType(self._index_specs)

    def has_index(self, columns: Sequence[str]) -> bool:
        """Whether an index (unique or not) covers exactly ``columns``."""
        probe = tuple(columns)
        return any(cols == probe for cols, _ in self._index_specs.values())

    def has_unique_index(self, columns: Sequence[str]) -> bool:
        """Whether a *unique* index covers exactly ``columns``."""
        probe = tuple(columns)
        return any(
            cols == probe and unique
            for cols, unique in self._index_specs.values()
        )

    # ------------------------------------------------------------------ #
    # data manipulation
    # ------------------------------------------------------------------ #

    def insert(self, row: Mapping[str, Any]) -> int:
        """Validate and insert ``row``; returns its internal row id.

        Unknown columns are rejected, missing nullable columns default to
        ``None``, and all declared indexes are updated atomically (a
        failing unique check leaves the table unchanged).
        """
        unknown = set(row) - set(self._columns_by_name)
        if unknown:
            raise StorageError(
                f"table {self.name!r}: unknown columns {sorted(unknown)!r}"
            )
        stored: Dict[str, Any] = {}
        for column in self.columns:
            stored[column.name] = column.validate(row.get(column.name))

        row_id = self._next_row_id
        self._backend.insert(row_id, stored)
        self._next_row_id += 1
        self._commit("insert", [(row_id, None)])
        return row_id

    def insert_many(self, rows: Sequence[Mapping[str, Any]]) -> List[int]:
        """Validate and insert a batch of rows atomically; returns the
        internal row ids, in order.

        Unlike a loop of :meth:`insert`, the physical writes go through
        the backend's bulk path (one transaction under SQLite) and a
        failing row rolls the *whole batch* back — the table is left
        exactly as before the call.
        """
        rows = list(rows)
        stored_batch: List[Dict[str, Any]] = []
        for row in rows:
            unknown = set(row) - set(self._columns_by_name)
            if unknown:
                raise StorageError(
                    f"table {self.name!r}: unknown columns {sorted(unknown)!r}"
                )
            stored_batch.append(
                {
                    column.name: column.validate(row.get(column.name))
                    for column in self.columns
                }
            )
        row_ids = list(
            range(self._next_row_id, self._next_row_id + len(stored_batch))
        )
        self._backend.insert_rows(list(zip(row_ids, stored_batch)))
        self._next_row_id += len(stored_batch)
        self._commit("insert", [(row_id, None) for row_id in row_ids])
        return row_ids

    def update(self, row_id: int, changes: Mapping[str, Any]) -> None:
        """Validate and apply a partial update to row ``row_id`` in place.

        The row keeps its id and its position in insertion order (and in
        every index bucket), so scans and batch lookups stay ordered
        identically across backends after an update. Unknown columns are
        rejected; a failing unique check leaves the table unchanged.
        """
        prepared = self._prepare_update(row_id, changes)
        self._apply_updates([prepared])
        self._commit("update", [(row_id, prepared[1])])

    def update_many(self, updates: Mapping[int, Mapping[str, Any]]) -> None:
        """Apply a batch of partial updates (row id -> changes) atomically.

        One call is one logical refresh: the physical writes happen
        row-at-a-time but a failing row rolls the whole batch back by
        restoring the pre-images, and the change log records the batch
        under consecutive versions.
        """
        prepared = [
            self._prepare_update(row_id, changes)
            for row_id, changes in updates.items()
        ]
        self._apply_updates(prepared)
        self._commit("update", [(row_id, pre) for row_id, pre, _new in prepared])

    def _prepare_update(
        self, row_id: int, changes: Mapping[str, Any]
    ) -> Tuple[int, Dict[str, Any], Dict[str, Any]]:
        """Validate one partial update into ``(row_id, pre_image, new_row)``."""
        unknown = set(changes) - set(self._columns_by_name)
        if unknown:
            raise StorageError(
                f"table {self.name!r}: unknown columns {sorted(unknown)!r}"
            )
        if not changes:
            raise StorageError(
                f"table {self.name!r}: update of row {row_id} changes no columns"
            )
        current = self._backend.get(row_id)
        if current is None:
            raise StorageError(f"table {self.name!r} has no row id {row_id}")
        # copy before mutating: the memory backend hands out its live dict
        pre = dict(current)
        new_row = dict(pre)
        for name, value in changes.items():
            new_row[name] = self._columns_by_name[name].validate(value)
        return row_id, pre, new_row

    def _apply_updates(
        self, prepared: Sequence[Tuple[int, Dict[str, Any], Dict[str, Any]]]
    ) -> None:
        applied: List[Tuple[int, Dict[str, Any]]] = []
        try:
            for row_id, pre, new_row in prepared:
                self._backend.update(row_id, new_row)
                applied.append((row_id, pre))
        except Exception:
            for row_id, pre in reversed(applied):
                self._backend.update(row_id, pre)
            raise

    def delete(self, row_id: int) -> None:
        """Remove the row with internal id ``row_id``."""
        current = self._backend.get(row_id)
        pre = dict(current) if current is not None else None
        self._backend.delete(row_id)
        self._commit("delete", [(row_id, pre)])

    def _commit(
        self, op: str, entries: Sequence[Tuple[int, Optional[Dict[str, Any]]]]
    ) -> None:
        """Log ``(row_id, pre_image)`` entries under consecutive versions,
        then publish the new :attr:`version` — all under the log lock.
        A reader that sees the new version is guaranteed to find every
        entry up to it in :meth:`changes_since`."""
        with self._log_lock:
            base = self.version
            for offset, (row_id, pre) in enumerate(entries, start=1):
                self._change_log.record(base + offset, op, row_id, pre)
            self.version = base + len(entries)

    # ------------------------------------------------------------------ #
    # change tracking
    # ------------------------------------------------------------------ #

    @property
    def change_log(self) -> TableChangeLog:
        """The bounded mutation log behind :meth:`changes_since`."""
        return self._change_log

    def changes_since(self, version: int) -> ChangeSet:
        """The coalesced row-level delta between ``version`` and now.

        ``full=True`` when the bounded log no longer covers the window —
        consumers must then treat every row as potentially changed.
        """
        with self._log_lock:
            return self._change_log.changes_since(version)

    # ------------------------------------------------------------------ #
    # retrieval
    # ------------------------------------------------------------------ #

    def get(self, row_id: int) -> Row:
        row = self._backend.get(row_id)
        if row is None:
            raise StorageError(f"table {self.name!r} has no row id {row_id}")
        return MappingProxyType(row)

    def rows(self) -> Iterator[Row]:
        """Iterate all rows in insertion order."""
        for row in self._backend.rows():
            yield MappingProxyType(row)

    def row_ids(self) -> Iterator[int]:
        return self._backend.row_ids()

    def lookup(self, columns: Sequence[str], values: Sequence[Any]) -> List[Row]:
        """Find rows where ``columns`` equal ``values``.

        Uses a matching index when one exists, otherwise scans.
        """
        columns = tuple(columns)
        if len(columns) != len(values):
            raise StorageError("lookup: columns and values length mismatch")
        self._require_columns(columns, "lookup")
        return [
            MappingProxyType(row)
            for row in self._backend.lookup(columns, tuple(values))
        ]

    @staticmethod
    def _probe_keys(
        columns: Tuple[str, ...],
        values_list: Sequence[Any],
        single: bool,
        context: str,
    ) -> List[Hashable]:
        """Normalise a batch of probes into index keys (see lookup_many)."""
        keys: List[Hashable] = []
        width = len(columns)
        for values in values_list:
            if not isinstance(values, (list, tuple)):
                if single:
                    keys.append(values)
                    continue
                raise StorageError(
                    f"{context}: composite probe must be a sequence of "
                    f"{width} values, got {values!r}"
                )
            if len(values) != width:
                raise StorageError(f"{context}: columns and values length mismatch")
            keys.append(values[0] if single else tuple(values))
        return keys

    def lookup_many(
        self, columns: Sequence[str], values_list: Sequence[Any]
    ) -> Dict[Hashable, List[Row]]:
        """Find rows for a whole batch of equality probes in one pass.

        ``values_list`` holds one value tuple per probe; single-column
        probes may pass bare (non-sequence) values instead of one-element
        sequences. The result groups the matching rows by probe key — the
        bare value for single-column probes, the value tuple otherwise;
        keys with no matching rows are omitted, so ``result.get(key)``
        distinguishes hits from misses. Backends answer the whole batch
        with one physical pass where possible: one hash-index probe pass
        in memory, chunked ``SELECT ... IN`` under SQLite, vectorized
        probes over numpy columns.
        """
        columns = tuple(columns)
        self._require_columns(columns, "lookup_many")
        single = len(columns) == 1
        keys = self._probe_keys(columns, values_list, single, "lookup_many")
        return {
            key: [MappingProxyType(row) for row in rows]
            for key, rows in self._backend.lookup_many(columns, keys).items()
        }

    def lookup_in(
        self, columns: Sequence[str], values_list: Sequence[Any]
    ) -> Set[Hashable]:
        """Membership probe: which of the batched keys have matching rows.

        Same key convention as :meth:`lookup_many`, but only existence is
        reported — no row materialisation, so a frontier-sized "which of
        these records exist?" question costs one index pass (or one scan).
        """
        columns = tuple(columns)
        self._require_columns(columns, "lookup_in")
        single = len(columns) == 1
        keys = self._probe_keys(columns, values_list, single, "lookup_in")
        return self._backend.lookup_in(columns, keys)

    # ------------------------------------------------------------------ #
    # optional batch-columnar surface (selection vectors)
    # ------------------------------------------------------------------ #

    @property
    def supports_columnar(self) -> bool:
        """True when the backend can answer :meth:`probe_positions` /
        :meth:`gather` (the numpy selection-vector fast path)."""
        return self._backend.supports_columnar

    def probe_positions(
        self, columns: Sequence[str], values_list: Sequence[Any]
    ) -> Dict[Hashable, Any]:
        """Batch equality probe returning selection vectors — the array
        of matching row *positions* per probe key (misses omitted),
        with no row materialisation. Same key convention as
        :meth:`lookup_many`. Requires :attr:`supports_columnar`.
        """
        columns = tuple(columns)
        self._require_columns(columns, "probe_positions")
        single = len(columns) == 1
        keys = self._probe_keys(columns, values_list, single, "probe_positions")
        return self._backend.probe_positions(columns, keys)

    def gather(self, columns: Sequence[str], positions: Any) -> Tuple[Any, ...]:
        """Column values at ``positions`` as one array per column (typed
        numpy arrays, or object arrays for dictionary-encoded columns).
        Requires :attr:`supports_columnar`.
        """
        columns = tuple(columns)
        self._require_columns(columns, "gather")
        return self._backend.gather(columns, positions)

    def scan(self, predicate: Callable[[Row], bool]) -> List[Row]:
        """Full scan returning rows for which ``predicate`` is true."""
        result: List[Row] = []
        for row in self._backend.rows():
            proxy = MappingProxyType(row)
            if predicate(proxy):
                result.append(proxy)
        return result

    def pk_lookup(self, *values: Any) -> Optional[Row]:
        """Look a row up by primary key; ``None`` if absent."""
        if self.primary_key is None:
            raise StorageError(f"table {self.name!r} has no primary key")
        matches = self.lookup(self.primary_key, values)
        return matches[0] if matches else None

    def __len__(self) -> int:
        return len(self._backend)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Table({self.name!r}, {len(self)} rows, "
            f"storage={self._backend.name!r})"
        )
