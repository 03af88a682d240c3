"""Incremental graph repair: record a build's probes, replay only the dirty ones.

The engine's delta-aware cache (see ``docs/architecture.md``,
"Incremental invalidation & recompile") needs to turn a cached
``QueryGraph`` plus per-table :class:`~repro.storage.changes.ChangeSet`
deltas into the graph a cold rebuild *would* produce — bit for bit:
same nodes in the same insertion order, same edges, same floats, same
:class:`~repro.integration.builder.BuildStats`.

Splicing the cached graph cannot deliver that: the cached graph does
not record *dangling* references (links whose endpoint record did not
exist), so a formerly-dangling target that now exists could not be
re-inserted at the position a cold rebuild would give it. Instead this
module memoises the **storage layer**:

* :class:`RecordingBuilder` runs the normal cold build while recording
  every probe's per-key result into a :class:`ProbeCache` — link
  fetches (normalised to ``(target keys, edge q values)``), record
  prefetches, seed probes.
* :class:`ReplayBuilder` re-runs the *unchanged* BFS algorithm, serving
  every key whose rows provably did not change from the recording and
  re-probing storage only for **dirty** keys (keys whose pre- or
  post-image appears in a change set). The output is a brand-new graph,
  identical to a cold rebuild by construction — the storage layer
  answers identically for clean keys, and everything downstream of the
  fetch hooks is the very same code.

Along the way the replay tracks which nodes' out-edge sets may have
changed (``dirty_nodes``, a superset), which lets
:func:`~repro.core.compile.patch_compiled` copy the untouched CSR
segments of the previously compiled graph instead of re-merging them.

Determinism assumption: ``pr``/``qr`` transformations must be pure
functions of their row (the same assumption the engine's query cache
already makes for cold rebuilds).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.integration.builder import (
    BatchedEntityGraphBuilder,
    NodeKey,
    _checked,
)
from repro.integration.mediator import EntityPlan, Mediator, RelationshipPlan
from repro.storage.changes import ChangeSet
from repro.storage.table import Row, Table

__all__ = [
    "ProbeCache",
    "RecordingBuilder",
    "ReplayBuilder",
    "record_build",
    "repair_build",
]

#: normalised per-key link-fetch value: target keys plus one edge
#: probability per row, or ``None`` when every edge carries ``q = qs``
LinkGroup = Tuple[List[Hashable], Optional[List[float]]]

_EMPTY: frozenset = frozenset()


class _Probes:
    """One table+columns probe surface: which keys were probed, and the
    recorded result of each key that had one (misses stay recorded as
    probed-but-absent, which is what lets the replay distinguish a
    recorded miss from a never-probed key)."""

    __slots__ = ("table", "columns", "probed", "results")

    def __init__(self, table: Table, columns: Tuple[str, ...]):
        self.table = table
        self.columns = columns
        self.probed: Set[Hashable] = set()
        self.results: Dict[Hashable, object] = {}


class ProbeCache:
    """Every storage probe of one build, keyed by (table, columns).

    Three namespaces with different value shapes: ``links`` hold
    :data:`LinkGroup` tuples, ``records`` hold the first matching row
    per key, ``seeds`` hold the full seed row list of the query
    predicate probe.
    """

    def __init__(self) -> None:
        self.links: Dict[Tuple[int, Tuple[str, ...]], _Probes] = {}
        self.records: Dict[Tuple[int, Tuple[str, ...]], _Probes] = {}
        self.seeds: Dict[Tuple[int, Tuple[str, ...]], _Probes] = {}

    def bucket(
        self,
        namespace: Dict[Tuple[int, Tuple[str, ...]], _Probes],
        table: Table,
        columns: Tuple[str, ...],
    ) -> _Probes:
        key = (id(table), columns)
        probes = namespace.get(key)
        if probes is None:
            probes = namespace[key] = _Probes(table, columns)
        return probes

    def dep_tables(self) -> Dict[int, Table]:
        """The tables this build actually read, by identity — the
        engine's per-entry dependency set: changes to any *other* table
        cannot affect the cached graph."""
        deps: Dict[int, Table] = {}
        for namespace in (self.links, self.records, self.seeds):
            for probes in namespace.values():
                deps[id(probes.table)] = probes.table
        return deps


def _normalize_links(
    plan: RelationshipPlan, vec: bool, data: Dict
) -> Dict[Hashable, LinkGroup]:
    """Link-fetch results in the canonical ``(targets, q values)`` form.

    The selection-vector path already produces it; row-dict results are
    reduced with the same ``qs * qr(row)`` float products the replay
    (and the builder's own step-3 dict branch) computes, so serving the
    normalised form through the builder's vectorized replay branch is
    bit-identical to replaying the rows.
    """
    if vec:
        return data
    normalized: Dict[Hashable, LinkGroup] = {}
    column = plan.target_column
    if plan.qr_is_one:
        for key, rows in data.items():
            normalized[key] = ([row[column] for row in rows], None)
        return normalized
    qs = plan.qs
    qr = plan.qr
    relationship = plan.relationship
    for key, rows in data.items():
        targets: List[Hashable] = []
        qvals: List[float] = []
        for row in rows:
            targets.append(row[column])
            qvals.append(qs * _checked(qr(row), f"qr({relationship}", key))
        normalized[key] = (targets, qvals)
    return normalized


def _dirty_keys_of(
    change_set: Optional[ChangeSet], table: Table, columns: Tuple[str, ...]
) -> frozenset:
    """Every probe key over ``columns`` whose matching row set may have
    changed: the pre-image keys of updated/deleted rows plus the current
    keys of inserted/updated rows."""
    if change_set is None or change_set.is_empty:
        return _EMPTY
    single = len(columns) == 1
    column = columns[0]

    def extract(row: Row) -> Hashable:
        return row[column] if single else tuple(row[c] for c in columns)

    keys = set()
    for pre in change_set.updated.values():
        keys.add(extract(pre))
    for pre in change_set.deleted.values():
        keys.add(extract(pre))
    for row_id in change_set.inserted:
        keys.add(extract(table.get(row_id)))
    for row_id in change_set.updated:
        keys.add(extract(table.get(row_id)))
    return frozenset(keys)


class RecordingBuilder(BatchedEntityGraphBuilder):
    """The batched builder, recording every probe into a ProbeCache.

    The build itself is untouched — every hook delegates to the normal
    fetch (including the selection-vector fast path) and records the
    result on the side.
    """

    def __init__(self, mediator: Mediator, cache: Optional[ProbeCache] = None):
        super().__init__(mediator)
        self.cache = cache if cache is not None else ProbeCache()

    def _fetch_entity_record(
        self, plan: EntityPlan, key: Hashable
    ) -> Optional[Row]:
        record = super()._fetch_entity_record(plan, key)
        probes = self.cache.bucket(
            self.cache.records, plan.table, (plan.key_column,)
        )
        probes.probed.add(key)
        if record is not None:
            probes.results[key] = record
        return record

    def _fetch_links(
        self, plan: RelationshipPlan, keys: List[Hashable]
    ) -> Tuple[bool, Dict]:
        vec, data = super()._fetch_links(plan, keys)
        probes = self.cache.bucket(
            self.cache.links, plan.table, (plan.source_column,)
        )
        probes.probed.update(keys)
        probes.results.update(_normalize_links(plan, vec, data))
        return vec, data

    def _fetch_records(
        self, target_plan: EntityPlan, missing: List[Hashable]
    ) -> Dict[Hashable, Row]:
        records = super()._fetch_records(target_plan, missing)
        probes = self.cache.bucket(
            self.cache.records, target_plan.table, (target_plan.key_column,)
        )
        probes.probed.update(missing)
        probes.results.update(records)
        return records


class ReplayBuilder(BatchedEntityGraphBuilder):
    """The batched builder, serving clean keys from a prior recording.

    A key is *clean* for a probe surface when it was probed by the
    recorded build and is not dirty under the change sets; everything
    else goes to storage. Fresh results (and re-served clean ones) are
    recorded into :attr:`fresh` — the repaired cache entry — and every
    node whose out-edge set may differ from the recorded build lands in
    :attr:`dirty_nodes` (a superset; recomputing a clean node's CSR
    segment is wasted work but never wrong).
    """

    def __init__(
        self,
        mediator: Mediator,
        cache: ProbeCache,
        changes: Dict[Table, ChangeSet],
    ):
        super().__init__(mediator)
        self.cache = cache
        self.fresh = ProbeCache()
        self._changes = changes
        self._dirty: Dict[Tuple[int, Tuple[str, ...]], frozenset] = {}
        self.dirty_nodes: Set[NodeKey] = set()

    def dirty_keys(self, table: Table, columns: Tuple[str, ...]) -> frozenset:
        key = (id(table), columns)
        keys = self._dirty.get(key)
        if keys is None:
            keys = self._dirty[key] = _dirty_keys_of(
                self._changes.get(table), table, columns
            )
        return keys

    def _target_dirty_keys(self, target_entity: str) -> frozenset:
        """Dirty key-column values of ``target_entity``'s table (empty
        when no source provides the set — then the cold build dropped
        every such link as dangling and the replay will too)."""
        try:
            plan = self.mediator.entity_plan(target_entity)
        except Exception:
            return _EMPTY
        return self.dirty_keys(plan.table, (plan.key_column,))

    def _fetch_entity_record(
        self, plan: EntityPlan, key: Hashable
    ) -> Optional[Row]:
        columns = (plan.key_column,)
        probes = self.cache.records.get((id(plan.table), columns))
        dirty = self.dirty_keys(plan.table, columns)
        if probes is not None and key not in dirty and key in probes.probed:
            record = probes.results.get(key)
        else:
            record = super()._fetch_entity_record(plan, key)
            self.dirty_nodes.add((plan.entity_set, key))
        fresh = self.fresh.bucket(self.fresh.records, plan.table, columns)
        fresh.probed.add(key)
        if record is not None:
            fresh.results[key] = record
        return record

    def _fetch_links(
        self, plan: RelationshipPlan, keys: List[Hashable]
    ) -> Tuple[bool, Dict]:
        columns = (plan.source_column,)
        probes = self.cache.links.get((id(plan.table), columns))
        dirty = self.dirty_keys(plan.table, columns)
        source_entity = plan.binding.source_entity
        served: Dict[Hashable, LinkGroup] = {}
        to_probe: List[Hashable] = []
        for key in keys:
            if probes is None or key in dirty or key not in probes.probed:
                to_probe.append(key)
                # this node's link rows come from live storage: its
                # edge set may differ from the recorded build
                self.dirty_nodes.add((source_entity, key))
            else:
                group = probes.results.get(key)
                if group is not None:
                    served[key] = group
        if served:
            target_dirty = self._target_dirty_keys(plan.target_entity)
            if target_dirty:
                # a clean link row to a dirty target key can flip
                # between dangling and live — the edge appears or
                # disappears even though this table never changed
                for key, (target_keys, _qvals) in served.items():
                    if any(t in target_dirty for t in target_keys):
                        self.dirty_nodes.add((source_entity, key))
        if to_probe:
            vec, data = super()._fetch_links(plan, to_probe)
            served.update(_normalize_links(plan, vec, data))
        fresh = self.fresh.bucket(self.fresh.links, plan.table, columns)
        fresh.probed.update(keys)
        fresh.results.update(served)
        return True, served

    def _fetch_records(
        self, target_plan: EntityPlan, missing: List[Hashable]
    ) -> Dict[Hashable, Row]:
        columns = (target_plan.key_column,)
        probes = self.cache.records.get((id(target_plan.table), columns))
        dirty = self.dirty_keys(target_plan.table, columns)
        served: Dict[Hashable, Row] = {}
        to_probe: List[Hashable] = []
        for key in missing:
            if probes is None or key in dirty or key not in probes.probed:
                to_probe.append(key)
            else:
                row = probes.results.get(key)
                if row is not None:
                    served[key] = row
        if to_probe:
            served.update(super()._fetch_records(target_plan, to_probe))
        fresh = self.fresh.bucket(
            self.fresh.records, target_plan.table, columns
        )
        fresh.probed.update(missing)
        fresh.results.update(served)
        return served


def record_build(query, mediator: Mediator):
    """Cold-expand ``query`` while recording every probe.

    Returns ``(graph, query_node, build_stats, probe_cache)`` — the
    first three are exactly what ``query.expand(mediator)`` would
    produce.
    """
    builder = RecordingBuilder(mediator)
    cache = builder.cache

    def find_records(entity_set: str, attribute: str, value):
        rows = mediator.find_records(entity_set, attribute, value)
        table = mediator.entity_plan(entity_set).table
        probes = cache.bucket(cache.seeds, table, (attribute,))
        probes.probed.add(value)
        if rows:
            probes.results[value] = rows
        return rows

    return (*query.expand_with(mediator, builder, find_records=find_records), cache)


def repair_build(
    query,
    mediator: Mediator,
    cache: ProbeCache,
    changes: Dict[Table, ChangeSet],
):
    """Re-expand ``query`` against current storage, touching only the
    dirty region.

    Returns ``(graph, query_node, build_stats, fresh_cache, dirty_nodes)``:
    the expansion is bit-identical to a cold rebuild, ``fresh_cache``
    is the recording for the repaired entry, and ``dirty_nodes`` is a
    superset of the nodes whose compiled out-segments must be re-merged
    (everything else can be patched over from the old CSR arrays).

    Callers must not use this when any relevant change set has
    ``full=True`` (the delta is unknown) — rebuild cold instead. Raises
    whatever a cold expansion would raise (``EmptyAnswerError`` included).
    """
    builder = ReplayBuilder(mediator, cache, changes)
    fresh = builder.fresh
    seed_probe_dirty = False

    def find_records(entity_set: str, attribute: str, value):
        nonlocal seed_probe_dirty
        plan = mediator.entity_plan(entity_set)
        columns = (attribute,)
        probes = cache.seeds.get((id(plan.table), columns))
        dirty = builder.dirty_keys(plan.table, columns)
        if probes is not None and value not in dirty and value in probes.probed:
            rows = probes.results.get(value) or []
        else:
            rows = mediator.find_records(entity_set, attribute, value)
            seed_probe_dirty = True
        fp = fresh.bucket(fresh.seeds, plan.table, columns)
        fp.probed.add(value)
        if rows:
            fp.results[value] = rows
        return rows

    graph, source, stats = query.expand_with(mediator, builder, find_records=find_records)
    dirty_nodes = set(builder.dirty_nodes)
    if seed_probe_dirty or any(
        entity_set == query.entity_set for entity_set, _ in dirty_nodes
    ):
        # the seed set (or a seed's danglingness) may have changed, so
        # the query node's seed-edge segment must be re-merged
        dirty_nodes.add(source)
    return graph, source, stats, fresh, dirty_nodes
