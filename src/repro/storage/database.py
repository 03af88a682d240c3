"""The database object: a namespace of tables with referential integrity."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Sequence

from repro.errors import IntegrityError, StorageError
from repro.storage.backends import STORAGE_BACKENDS, create_backend
from repro.storage.column import Column
from repro.storage.table import ForeignKey, Table

__all__ = ["Database"]


class Database:
    """A collection of named tables with cross-table foreign key checks.

    Inserts must go through :meth:`insert` (not ``table.insert``) for the
    foreign keys to be enforced — the table alone cannot see its
    referenced tables.

    ``storage`` selects the physical backend every table of this
    database is created on: ``"memory"`` (the default dict-backed
    layout), ``"sqlite"`` (persistent; ``storage_path`` names the
    database file, ``None`` keeps it in a private in-memory SQLite
    database), or ``"vectorized"`` (dtype-typed numpy columns with vectorized
    probes; ``storage_path`` names a directory of memory-mapped
    ``.npy`` column files). All backends serve identical semantics —
    see ``docs/backends.md``.
    """

    def __init__(
        self,
        name: str = "db",
        storage: str = "memory",
        storage_path: Optional[object] = None,
    ):
        if storage not in STORAGE_BACKENDS:
            raise StorageError(
                f"unknown storage backend {storage!r}; choose from "
                f"{list(STORAGE_BACKENDS)}"
            )
        if storage_path is not None and storage not in ("sqlite", "vectorized"):
            raise StorageError(
                f"storage_path only applies to the sqlite and vectorized "
                f"backends, not {storage!r}"
            )
        self.name = name
        self.storage = storage
        self.storage_path = storage_path
        self._tables: Dict[str, Table] = {}
        self._store = None
        if storage == "sqlite":
            from repro.storage.sqlite import SQLiteStore

            self._store = SQLiteStore(storage_path)
        elif storage == "vectorized" and storage_path is not None:
            from repro.storage.vectorized import VectorizedStore

            self._store = VectorizedStore(storage_path)

    def create_table(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Optional[Sequence[str]] = None,
        foreign_keys: Sequence[ForeignKey] = (),
    ) -> Table:
        """Create a table; referenced tables must already exist."""
        if name in self._tables:
            raise StorageError(f"database {self.name!r} already has table {name!r}")
        for fk in foreign_keys:
            ref = self._tables.get(fk.ref_table)
            if ref is None:
                raise StorageError(
                    f"table {name!r}: foreign key references unknown table "
                    f"{fk.ref_table!r}"
                )
            for column in fk.ref_columns:
                if column not in ref.column_names:
                    raise StorageError(
                        f"table {name!r}: foreign key references unknown column "
                        f"{fk.ref_table}.{column}"
                    )
        table = Table(
            name,
            columns,
            primary_key=primary_key,
            foreign_keys=foreign_keys,
            backend=create_backend(self.storage, self._store),
        )
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            raise StorageError(f"database {self.name!r} has no table {name!r}")
        return table

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> Iterable[Table]:
        return self._tables.values()

    def insert(self, table_name: str, row: Mapping[str, Any]) -> int:
        """Insert ``row`` into ``table_name`` after checking foreign keys."""
        table = self.table(table_name)
        for fk in table.foreign_keys:
            values = [row.get(column) for column in fk.columns]
            if any(value is None for value in values):
                continue  # null FK components opt out of the check
            ref = self.table(fk.ref_table)
            if not ref.lookup(fk.ref_columns, values):
                raise IntegrityError(
                    f"table {table_name!r}: foreign key {fk.columns!r} = "
                    f"{tuple(values)!r} has no match in {fk.ref_table!r}"
                )
        return table.insert(row)

    def insert_many(
        self, table_name: str, rows: Iterable[Mapping[str, Any]]
    ) -> int:
        """Insert a batch of rows; returns the number inserted.

        Set-at-a-time fast path: foreign keys are checked with one
        batched existence probe per constraint
        (:meth:`~repro.storage.table.Table.lookup_in`) and the physical
        writes go through the backend's bulk insert — a single
        ``executemany`` transaction under SQLite, several-fold faster
        than the row-at-a-time loop on large generated sources. The
        batch is atomic: any violation leaves the table unchanged.

        (Check-then-insert is equivalent to the historical row-at-a-time
        interleaving because foreign keys can only reference *other*,
        pre-existing tables — ``create_table`` rejects self-references —
        so a batch can never satisfy its own constraints.)
        """
        rows = list(rows)
        if not rows:
            return 0
        table = self.table(table_name)
        for fk in table.foreign_keys:
            probes = []
            for row in rows:
                values = tuple(row.get(column) for column in fk.columns)
                if any(value is None for value in values):
                    continue  # null FK components opt out of the check
                probes.append(values)
            if not probes:
                continue
            ref = self.table(fk.ref_table)
            present = ref.lookup_in(fk.ref_columns, probes)
            single = len(fk.ref_columns) == 1
            missing = [
                values
                for values in probes
                if (values[0] if single else values) not in present
            ]
            if missing:
                raise IntegrityError(
                    f"table {table_name!r}: foreign key {fk.columns!r} = "
                    f"{missing[0]!r} has no match in {fk.ref_table!r}"
                )
        table.insert_many(rows)
        return len(rows)

    def close(self) -> None:
        """Release backend resources (the shared SQLite connection, or
        the vectorized store's flush-to-disk)."""
        if self._store is not None:
            self._store.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ", ".join(f"{t.name}={len(t)}" for t in self._tables.values())
        return f"Database({self.name!r} [{self.storage}]: {sizes})"
