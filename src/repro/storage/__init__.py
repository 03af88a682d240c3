"""A small relational storage engine with pluggable backends.

This is the substrate the BioRank mediator materialises source data into:
typed tables with primary keys, secondary indexes, foreign keys and
the handful of relational operations (selection, projection, equijoin)
the integration layer needs for link-following.

Tables are facades over a :class:`~repro.storage.backends.StorageBackend`:
``"memory"`` (dict rows + hash indexes, the default), ``"sqlite"``
(disk persistence, batched ``SELECT ... IN`` lookups) and
``"vectorized"`` (dtype-typed numpy
columns, vectorized probes, selection-vector reads, mmap persistence) —
selected per :class:`~repro.storage.database.Database` via
``Database(storage=...)``.
Whatever the backend, tables enforce real constraints (types, key
uniqueness, referential integrity), so the synthetic biological sources
built on top behave like actual curated databases rather than ad-hoc
dictionaries.
"""

from repro.storage.backends import (
    MemoryBackend,
    STORAGE_BACKENDS,
    StorageBackend,
    create_backend,
)
from repro.storage.changes import ChangeSet, TableChangeLog
from repro.storage.column import Column, ColumnType
from repro.storage.csv_io import dump_database, dump_table, load_table_rows
from repro.storage.database import Database
from repro.storage.index import HashIndex
from repro.storage.ops import equijoin, project, select
from repro.storage.sqlite import SQLiteBackend, SQLiteStore
from repro.storage.table import ForeignKey, Row, Table
from repro.storage.vectorized import VectorizedColumnarBackend, VectorizedStore

__all__ = [
    "ChangeSet",
    "Column",
    "ColumnType",
    "MemoryBackend",
    "SQLiteBackend",
    "SQLiteStore",
    "STORAGE_BACKENDS",
    "StorageBackend",
    "create_backend",
    "dump_table",
    "dump_database",
    "load_table_rows",
    "Database",
    "ForeignKey",
    "HashIndex",
    "Row",
    "Table",
    "TableChangeLog",
    "VectorizedColumnarBackend",
    "VectorizedStore",
    "equijoin",
    "project",
    "select",
]
