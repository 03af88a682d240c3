"""Bounded per-table change logs and coalesced change sets.

Every :class:`~repro.storage.table.Table` mutation (insert / update /
delete) appends one entry to a :class:`TableChangeLog`; consumers that
cached derived state at table version ``v`` later ask
``changes_since(v)`` and get back a :class:`ChangeSet` — the *coalesced*
row-level delta between then and now. The engine's incremental
invalidation path uses these deltas to repair cached query graphs
instead of rebuilding them.

Coalescing exploits the facade's row-id discipline: ids are assigned
monotonically and never reused, so the op sequence for any one row id
is at most ``insert, update*, delete?``. A row inserted and deleted
inside the window cancels out entirely; repeated updates collapse to
the *earliest* pre-image (the row as the consumer last saw it).

The log is bounded (``limit`` entries). When trimming discards history
a floor version is raised, and any ``changes_since`` older than the
floor answers ``full=True`` — "assume everything changed" — which
consumers must treat as a cold-rebuild signal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Tuple

__all__ = ["ChangeSet", "TableChangeLog"]

Row = Dict[str, Any]


@dataclass(frozen=True)
class ChangeSet:
    """The coalesced row-level delta of one table over a version window.

    ``inserted`` rows are still live — read their current values through
    ``table.get``. ``updated`` and ``deleted`` map row ids to the
    *pre-image*: the full row as it stood when the window opened (so a
    consumer can compute which probe keys its cached results depended
    on). ``full=True`` means the window predates the log's retained
    history and the delta is unknown — treat every row as dirty.
    """

    inserted: Tuple[int, ...] = ()
    updated: Dict[int, Row] = field(default_factory=dict)
    deleted: Dict[int, Row] = field(default_factory=dict)
    full: bool = False

    @property
    def is_empty(self) -> bool:
        return not (self.full or self.inserted or self.updated or self.deleted)

    def __bool__(self) -> bool:
        return not self.is_empty


#: sentinel returned for windows the log no longer covers
FULL_CHANGE_SET = ChangeSet(full=True)


class TableChangeLog:
    """A bounded append-only log of ``(version, op, row_id, pre_image)``.

    The owning table appends one entry per version bump (``insert_many``
    assigns consecutive versions to its rows, so a batch of N rows is N
    entries but still one call). ``pre_image`` is ``None`` for inserts
    and the pre-mutation row dict (already copied by the facade) for
    updates and deletes.

    The log itself takes no lock: its owning table appends and reads it
    under the table's log lock (see ``Table.changes_since``).
    """

    def __init__(self, limit: int = 1024):
        if limit < 1:
            raise ValueError(f"change log limit must be >= 1, got {limit}")
        self.limit = limit
        self._entries: Deque[Tuple[int, str, int, Optional[Row]]] = deque()
        #: versions <= _floor are no longer reconstructible
        self._floor = 0

    def record(
        self, version: int, op: str, row_id: int, pre_image: Optional[Row]
    ) -> None:
        self._entries.append((version, op, row_id, pre_image))
        while len(self._entries) > self.limit:
            self._floor = self._entries.popleft()[0]

    def changes_since(self, version: int) -> ChangeSet:
        """The coalesced delta covering ``(version, now]``.

        ``full=True`` when the window starts below the retained floor.
        """
        if version < self._floor:
            return FULL_CHANGE_SET
        inserted: Dict[int, None] = {}
        updated: Dict[int, Row] = {}
        deleted: Dict[int, Row] = {}
        for entry_version, op, row_id, pre_image in self._entries:
            if entry_version <= version:
                continue
            if op == "insert":
                inserted[row_id] = None
            elif op == "update":
                if row_id not in inserted and row_id not in updated:
                    updated[row_id] = pre_image  # earliest pre-image wins
            else:  # delete
                if row_id in inserted:
                    del inserted[row_id]  # born and died inside the window
                elif row_id in updated:
                    deleted[row_id] = updated.pop(row_id)
                else:
                    deleted[row_id] = pre_image
        return ChangeSet(
            inserted=tuple(inserted), updated=updated, deleted=deleted
        )
