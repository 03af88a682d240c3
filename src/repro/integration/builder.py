"""Materialising the probabilistic entity graph from integrated sources.

Nodes are ``(entity_set, key)`` pairs carrying ``p = ps * pr``; edges are
relationship records carrying ``q = qs * qr`` (Definition 2.1 and the
probability products of §2). Links whose endpoint record does not exist
in the endpoint's entity table are *dangling* and dropped — real
integration runs hit these constantly, so the builder counts rather than
crashes.

Two builders share one contract:

* :class:`EntityGraphBuilder` — the scalar reference: record-at-a-time
  BFS probing storage once per node and once per link row;
* :class:`BatchedEntityGraphBuilder` — set-at-a-time execution: a
  level-synchronous BFS that expands the whole frontier per step through
  the storage layer's batch lookups
  (:meth:`~repro.storage.table.Table.lookup_many`), materialising nodes
  and edges in bulk. It replays link rows in the exact scalar order, so
  the resulting graph (nodes, edges, probabilities, insertion order) and
  :class:`BuildStats` are identical to the reference — the property
  suite cross-checks this on randomized schemas.

On storage backends with a batch-columnar read surface
(``table.supports_columnar``), the batched builder expands link tables
through selection vectors instead of row dicts: one
:meth:`~repro.storage.table.Table.probe_positions` per plan, one
:meth:`~repro.storage.table.Table.gather` of the target-key (and, for
:func:`~repro.integration.sources.column_weight` bindings, the weight)
column over the concatenated positions. The edge probabilities come out
of one ``qs * weights`` array product whose elements are IEEE-identical
to the scalar products, so the graph is still bit-for-bit the reference
graph. The batched builder also logs every node ordinal and edge it
adds and attaches the log to the finished graph as a compile hint,
letting :class:`~repro.core.compile.CompiledGraph` build its CSR arrays
from the log instead of re-walking Python dicts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.graph import ProbabilisticEntityGraph
from repro.integration.mediator import EntityPlan, Mediator, RelationshipPlan
from repro.storage.table import Row
from repro.utils.validation import check_probability

__all__ = [
    "BuildStats",
    "BatchedEntityGraphBuilder",
    "EntityGraphBuilder",
    "entity_node_id",
    "QUERY_ENTITY_SET",
]

#: pseudo entity set of the synthetic query node
QUERY_ENTITY_SET = "__query__"

NodeKey = Tuple[str, Hashable]


def entity_node_id(entity_set: str, key: Hashable) -> NodeKey:
    """Canonical graph node id of an entity record."""
    return (entity_set, key)


@dataclass
class BuildStats:
    """What happened during graph materialisation."""

    nodes: int = 0
    edges: int = 0
    dangling_links: int = 0
    visited_entities: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class NodePayload:
    """The ``data`` payload attached to every entity node."""

    entity_set: str
    key: Hashable
    record: Optional[Row]
    label: str


class EntityGraphBuilder:
    """Breadth-first expansion of the probabilistic entity graph.

    Starting from seed records, follows every outgoing relationship
    binding recursively (the "follows all links recursively" semantics of
    exploratory queries) and materialises nodes and edges with their
    probability products. This is the scalar reference implementation;
    production traffic runs :class:`BatchedEntityGraphBuilder`.
    """

    def __init__(self, mediator: Mediator):
        self.mediator = mediator
        self.graph = ProbabilisticEntityGraph()
        self.stats = BuildStats()

    def add_entity_node(self, entity_set: str, key: Hashable) -> Optional[NodeKey]:
        """Ensure the node for record ``key`` of ``entity_set`` exists.

        Returns its node id, or ``None`` when the record is dangling
        (referenced by a link but absent from the entity table).
        """
        node_id = entity_node_id(entity_set, key)
        if self.graph.has_node(node_id):
            return node_id
        record = self.mediator.entity_record(entity_set, key)
        if record is None:
            self.stats.dangling_links += 1
            return None
        _, binding = self.mediator.entity_binding(entity_set)
        pr = check_probability(binding.pr(record), f"pr({entity_set}:{key!r})")
        ps = self.mediator.confidences.ps(entity_set)
        label = binding.label(record) if binding.label else str(key)
        self.graph.add_node(
            node_id,
            p=ps * pr,
            data=NodePayload(entity_set, key, record, label),
        )
        self.stats.nodes += 1
        count = self.stats.visited_entities.get(entity_set, 0)
        self.stats.visited_entities[entity_set] = count + 1
        return node_id

    def add_query_node(self, value: Hashable) -> NodeKey:
        """Add the synthetic query node (``p = 1``) and return its id.

        The query node is not an entity record, so it does not count
        towards :attr:`BuildStats.nodes` or the visited-entity tallies.
        """
        node_id = entity_node_id(QUERY_ENTITY_SET, value)
        self.graph.add_node(
            node_id,
            p=1.0,
            data=NodePayload(QUERY_ENTITY_SET, value, None, f"query:{value!r}"),
        )
        return node_id

    def add_seed_edge(self, query_node: NodeKey, seed_id: NodeKey) -> None:
        """Link the query node to a matching seed record with ``q = 1``."""
        self.graph.add_edge(query_node, seed_id, q=1.0)
        self.stats.edges += 1

    def expand_from(self, seeds: Iterable[NodeKey]) -> None:
        """BFS over relationship bindings from already-added seed nodes."""
        frontier = deque(seeds)
        expanded: Set[NodeKey] = set()
        while frontier:
            current = frontier.popleft()
            if current in expanded:
                continue
            expanded.add(current)
            entity_set, key = current
            for source, rel in self.mediator.outgoing_bindings(entity_set):
                table = source.database.table(rel.table)
                for row in table.lookup((rel.source_column,), (key,)):
                    target_key = row[rel.target_column]
                    target_id = self.add_entity_node(rel.target_entity, target_key)
                    if target_id is None:
                        continue
                    qr = check_probability(
                        rel.qr(row), f"qr({rel.relationship}:{key!r})"
                    )
                    qs = self.mediator.confidences.qs(rel.relationship)
                    self.graph.add_edge(current, target_id, q=qs * qr)
                    self.stats.edges += 1
                    if target_id not in expanded:
                        frontier.append(target_id)


def _checked(value: object, context: str, detail: Hashable) -> float:
    """Fast-path probability validation: accept in-range floats inline,
    delegate everything else (NaN fails the chained comparison) to
    :func:`check_probability` so the error message and type coercion
    match the scalar builder exactly."""
    if type(value) is float and 0.0 <= value <= 1.0:
        return value
    return check_probability(value, f"{context}:{detail!r})")


class BatchedEntityGraphBuilder(EntityGraphBuilder):
    """Set-at-a-time expansion: level-synchronous BFS over batch lookups.

    Each BFS step expands the *entire frontier* at once:

    1. group the frontier by entity set, then fetch all link rows with
       one :meth:`~repro.storage.table.Table.lookup_many` per
       (entity set, relationship plan) pair;
    2. prefetch the records of every not-yet-materialised target key
       with one ``lookup_many`` per target entity set;
    3. replay the fetched rows in the scalar builder's exact order,
       materialising nodes and edges in bulk.

    Step 3 preserves the reference builder's node/edge insertion order
    and :class:`BuildStats` semantics (dangling links are counted per
    referencing row, visited-entity tallies per materialised node), so
    both builders produce identical graphs — only the number of storage
    round-trips changes: O(frontier) probes collapse into O(bindings).

    On ``vectorized`` relationship plans, step 1 runs on selection
    vectors (``probe_positions`` + ``gather``) instead of per-row dicts;
    step 3 replays the gathered key/weight arrays in the same order. Any
    out-of-range weight drops that plan back to the dict path so range
    errors raise with the scalar builder's exact message and state.

    The builder also keeps an **edge log** — node insertion ordinals
    plus ``(src, dst, q)`` per edge in insertion order — and attaches it
    to the graph as a compile hint when the log provably covers the
    whole graph, letting the CSR compiler skip the Python dict walk.
    """

    def __init__(self, mediator: Mediator):
        super().__init__(mediator)
        #: node id -> insertion ordinal (== row index in the compiled p
        #: array); the edge log below references these ordinals
        self._ord: Dict[NodeKey, int] = {}
        self._edge_src: List[int] = []
        self._edge_dst: List[int] = []
        self._edge_q: List[float] = []
        # goes False the moment an edge references a node this builder
        # did not add (graph mutated behind our back): the log can no
        # longer claim to cover the graph, so no hint is attached
        self._log_ok = True

    def add_query_node(self, value: Hashable) -> NodeKey:
        node_id = super().add_query_node(value)
        self._ord[node_id] = len(self._ord)
        return node_id

    def add_seed_edge(self, query_node: NodeKey, seed_id: NodeKey) -> None:
        super().add_seed_edge(query_node, seed_id)
        if not self._log_ok:
            return
        ordinals = self._ord
        try:
            source, target = ordinals[query_node], ordinals[seed_id]
        except KeyError:
            self._log_ok = False
            return
        self._edge_src.append(source)
        self._edge_dst.append(target)
        self._edge_q.append(1.0)

    def add_entity_node(self, entity_set: str, key: Hashable) -> Optional[NodeKey]:
        node_id = (entity_set, key)
        if self.graph.has_node(node_id):
            return node_id
        plan = self.mediator.entity_plan(entity_set)
        record = self._fetch_entity_record(plan, key)
        if record is None:
            self.stats.dangling_links += 1
            return None
        return self._materialise(plan, key, record)

    # -------------------------------------------------------------- #
    # storage-fetch hooks
    #
    # Every storage probe of a build goes through one of these three
    # methods (plus the seed probe in ``ExploratoryQuery.expand_with``),
    # so the incremental layer (repro.integration.incremental) can
    # record a cold build's probe results and later replay the same
    # algorithm serving unchanged keys from the recording — yielding a
    # repaired graph bit-identical to a cold rebuild by construction.
    # -------------------------------------------------------------- #

    def _fetch_entity_record(
        self, plan: EntityPlan, key: Hashable
    ) -> Optional[Row]:
        """The entity record of ``key`` (``None`` when dangling)."""
        matches = plan.table.lookup((plan.key_column,), (key,))
        return matches[0] if matches else None

    def _fetch_links(
        self, plan: RelationshipPlan, keys: List[Hashable]
    ) -> Tuple[bool, Dict]:
        """One batched link fetch for ``plan`` over the frontier ``keys``.

        Returns ``(vectorized, data_by_key)`` — ``{probe key: (target
        keys, q values or None)}`` groups on the selection-vector path,
        ``{probe key: [row, ...]}`` otherwise (misses omitted).
        """
        if plan.vectorized:
            groups = self._links_vectorized(plan, keys)
            if groups is not None:
                return True, groups
        return False, plan.table.lookup_many((plan.source_column,), keys)

    def _fetch_records(
        self, target_plan: EntityPlan, missing: List[Hashable]
    ) -> Dict[Hashable, Row]:
        """One batched record prefetch: ``{key: first matching row}``
        for the target keys in ``missing`` (misses omitted)."""
        grouped = target_plan.table.lookup_many(
            (target_plan.key_column,), missing
        )
        return {key: rows[0] for key, rows in grouped.items()}

    def _materialise(self, plan: EntityPlan, key: Hashable, record: Row) -> NodeKey:
        """Add the node for ``record`` (assumed absent) and tally stats."""
        entity_set = plan.entity_set
        pr = _checked(plan.pr(record), f"pr({entity_set}", key)
        node_id = (entity_set, key)
        self.graph.add_node(
            node_id,
            p=plan.ps * pr,
            data=NodePayload(
                entity_set, key, record, plan.label(record) if plan.label else str(key)
            ),
        )
        stats = self.stats
        stats.nodes += 1
        stats.visited_entities[entity_set] = (
            stats.visited_entities.get(entity_set, 0) + 1
        )
        self._ord[node_id] = len(self._ord)
        return node_id

    def _links_vectorized(
        self, plan: RelationshipPlan, keys: List[Hashable]
    ) -> Optional[Dict[Hashable, Tuple[List, Optional[List[float]]]]]:
        """Selection-vector link expansion for one ``vectorized`` plan.

        One ``probe_positions`` over the source-key column, one
        ``gather`` of the target-key (and weight) column over the
        concatenated positions, one array product for the edge
        probabilities. Returns ``{probe key: (target keys, qs or
        None)}`` in the dict path's per-key row order, or ``None`` when
        a weight falls outside ``[0, 1]`` — the caller then reruns the
        plan through ``lookup_many`` so the range error raises with the
        scalar builder's exact message and partial-graph state.
        """
        groups = plan.table.probe_positions((plan.source_column,), keys)
        if not groups:
            return groups
        position_lists = list(groups.values())
        lengths = [positions.shape[0] for positions in position_lists]
        all_positions = np.concatenate(position_lists)
        if plan.qr_column is None:
            (targets,) = plan.table.gather((plan.target_column,), all_positions)
            q_all: Optional[List[float]] = None
        else:
            targets, weights = plan.table.gather(
                (plan.target_column, plan.qr_column), all_positions
            )
            if not np.all((weights >= 0.0) & (weights <= 1.0)):
                return None
            # element-wise float64 product == the scalar qs * qr floats
            q_all = (plan.qs * weights).tolist()
        target_list = targets.tolist()
        expanded: Dict[Hashable, Tuple[List, Optional[List[float]]]] = {}
        start = 0
        for key, length in zip(groups, lengths):
            stop = start + length
            expanded[key] = (
                target_list[start:stop],
                None if q_all is None else q_all[start:stop],
            )
            start = stop
        return expanded

    def expand_from(self, seeds: Iterable[NodeKey]) -> None:
        """Level-synchronous BFS expanding the whole frontier per step."""
        mediator = self.mediator
        graph = self.graph
        stats = self.stats
        has_node = graph.has_node
        expanded: Set[NodeKey] = set()
        level: List[NodeKey] = list(seeds)
        while level:
            frontier: List[NodeKey] = []
            for node in level:
                if node not in expanded:
                    expanded.add(node)
                    frontier.append(node)
            if not frontier:
                break

            # 1. one batched link lookup per (entity set, relationship):
            #    selection vectors on vectorized plans, row dicts else
            by_set: Dict[str, List[Hashable]] = {}
            for entity_set, key in frontier:
                by_set.setdefault(entity_set, []).append(key)
            fetched_links: Dict[str, List[Tuple[bool, Dict, RelationshipPlan]]] = {}
            targets_seen: Dict[str, Set[Hashable]] = {}
            for entity_set, keys in by_set.items():
                links = fetched_links[entity_set] = []
                for plan in mediator.outgoing_plans(entity_set):
                    vec, data_by_key = self._fetch_links(plan, keys)
                    if not data_by_key:
                        continue
                    links.append((vec, data_by_key, plan))
                    seen = targets_seen.setdefault(plan.target_entity, set())
                    if vec:
                        for target_keys, _ in data_by_key.values():
                            seen.update(target_keys)
                    else:
                        column = plan.target_column
                        for rows in data_by_key.values():
                            for row in rows:
                                seen.add(row[column])

            # 2. prefetch the records of every not-yet-materialised
            #    target key, one batched lookup per target entity set
            fetched: Dict[str, Tuple[EntityPlan, Dict[Hashable, Row]]] = {}
            for target_entity, seen in targets_seen.items():
                missing = [
                    key for key in seen if not has_node((target_entity, key))
                ]
                if not missing:
                    continue
                target_plan = mediator.entity_plan(target_entity)
                fetched[target_entity] = (
                    target_plan,
                    self._fetch_records(target_plan, missing),
                )

            # each entity set's replay tasks carry the plan fields and
            # prefetched record maps hoisted out of the per-row loop
            empty: Dict[Hashable, Row] = {}
            tasks_by_set: Dict[str, List[Tuple]] = {}
            for entity_set, links in fetched_links.items():
                tasks_by_set[entity_set] = [
                    (
                        vec,
                        data_by_key,
                        plan.target_entity,
                        plan.target_column,
                        plan.qs,
                        None if plan.qr_is_one else plan.qr,
                        plan.relationship,
                    )
                    + fetched.get(plan.target_entity, (None, empty))
                    for vec, data_by_key, plan in links
                ]

            # 3. replay rows in scalar order, collecting new nodes and
            #    edges for one bulk insertion per level
            new_nodes: List[Tuple[NodeKey, float, NodePayload]] = []
            new_ids: Set[NodeKey] = set()
            new_edges: List[Tuple[NodeKey, NodeKey, float]] = []
            next_level: List[NodeKey] = []
            visited = stats.visited_entities
            dangling = 0
            for node in frontier:
                entity_set, key = node
                for (
                    vec,
                    data_by_key,
                    target_entity,
                    column,
                    qs,
                    qr_fn,
                    relationship,
                    target_plan,
                    records,
                ) in tasks_by_set[entity_set]:
                    group = data_by_key.get(key)
                    if not group:
                        continue
                    if vec:
                        # gathered target keys (and precomputed edge
                        # probabilities) replayed in stored-row order —
                        # the same rows, keys and floats the dict branch
                        # below would produce, with no row dicts built
                        target_keys, qvals = group
                        for position, target_key in enumerate(target_keys):
                            target_id = (target_entity, target_key)
                            if target_id not in new_ids and not has_node(target_id):
                                record = records.get(target_key)
                                if record is None:
                                    dangling += 1
                                    continue
                                pr = (
                                    1.0
                                    if target_plan.pr_is_one
                                    else _checked(
                                        target_plan.pr(record),
                                        f"pr({target_entity}",
                                        target_key,
                                    )
                                )
                                label = (
                                    target_plan.label(record)
                                    if target_plan.label
                                    else str(target_key)
                                )
                                new_nodes.append(
                                    (
                                        target_id,
                                        target_plan.ps * pr,
                                        NodePayload(
                                            target_entity, target_key, record, label
                                        ),
                                    )
                                )
                                new_ids.add(target_id)
                                visited[target_entity] = (
                                    visited.get(target_entity, 0) + 1
                                )
                            new_edges.append(
                                (node, target_id, qs if qvals is None else qvals[position])
                            )
                            if target_id not in expanded:
                                next_level.append(target_id)
                        continue
                    for row in group:
                        target_key = row[column]
                        target_id = (target_entity, target_key)
                        if target_id not in new_ids and not has_node(target_id):
                            record = records.get(target_key)
                            if record is None:
                                dangling += 1
                                continue
                            pr = (
                                1.0
                                if target_plan.pr_is_one
                                else _checked(
                                    target_plan.pr(record),
                                    f"pr({target_entity}",
                                    target_key,
                                )
                            )
                            label = (
                                target_plan.label(record)
                                if target_plan.label
                                else str(target_key)
                            )
                            new_nodes.append(
                                (
                                    target_id,
                                    target_plan.ps * pr,
                                    NodePayload(target_entity, target_key, record, label),
                                )
                            )
                            new_ids.add(target_id)
                            visited[target_entity] = visited.get(target_entity, 0) + 1
                        if qr_fn is None:
                            q = qs
                        else:
                            q = qs * _checked(qr_fn(row), f"qr({relationship}", key)
                        new_edges.append((node, target_id, q))
                        if target_id not in expanded:
                            next_level.append(target_id)
            graph.add_nodes(new_nodes)
            graph.add_edges(new_edges)
            if self._log_ok:
                ordinals = self._ord
                for target_id, _p, _payload in new_nodes:
                    ordinals[target_id] = len(ordinals)
                edge_src, edge_dst = self._edge_src, self._edge_dst
                edge_q = self._edge_q
                try:
                    for source, target, q in new_edges:
                        edge_src.append(ordinals[source])
                        edge_dst.append(ordinals[target])
                        edge_q.append(q)
                except KeyError:
                    self._log_ok = False
            stats.nodes += len(new_nodes)
            stats.edges += len(new_edges)
            stats.dangling_links += dangling
            level = next_level
        self._attach_csr_hint()

    def _attach_csr_hint(self) -> None:
        """Hand the edge log to the graph as a compile hint — but only
        when the log provably covers the graph: every logged ordinal
        matches the node's insertion position, the edge count matches,
        and no edge was ever removed (edge keys still contiguous, an
        O(1) check on the last inserted key). Anything mutating the
        graph afterwards clears the hint again."""
        graph = self.graph
        if not self._log_ok or len(self._edge_q) != graph.num_edges:
            return
        ordinals = self._ord
        if len(ordinals) != graph.num_nodes or any(
            ordinals.get(node) != position
            for position, node in enumerate(graph.nodes())
        ):
            return
        edge_keys = graph._edges
        if edge_keys and next(reversed(edge_keys)) != graph.num_edges - 1:
            return
        graph._csr_hint = (
            np.asarray(self._edge_src, dtype=np.int64),
            np.asarray(self._edge_dst, dtype=np.int64),
            np.asarray(self._edge_q, dtype=np.float64),
        )
