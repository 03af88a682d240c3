"""Exploratory queries (Definition 2.2).

An exploratory query ``(P.attr = "value", {P1, ..., Pn})`` selects the
records of entity set ``P`` matching the predicate, follows all links
recursively, and returns the reachable records belonging to the output
entity sets as a rankable answer set. Execution yields a
:class:`~repro.core.graph.QueryGraph` whose source is a synthetic query
node (``p = 1``) linked to each matching seed record with ``q = 1``.

Execution runs set-at-a-time (``builder="batched"``, the
frontier-batched :class:`~repro.integration.builder.BatchedEntityGraphBuilder`),
which is also the one build path of the serving engine. ``builder="scalar"``
selects the record-at-a-time :class:`~repro.integration.builder.EntityGraphBuilder`:
a test oracle, reachable only through :meth:`ExploratoryQuery.execute`
and :meth:`ExploratoryQuery.expand`, which produces an identical graph and
is kept for cross-checking (the builder property suite, the Fig 5
cross-check and the builder benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, Iterable, List, Tuple

from repro.core.graph import ProbabilisticEntityGraph, QueryGraph
from repro.errors import EmptyAnswerError, QueryError
from repro.integration.builder import (
    BatchedEntityGraphBuilder,
    BuildStats,
    EntityGraphBuilder,
)
from repro.integration.mediator import Mediator

__all__ = ["BUILDERS", "ExploratoryQuery", "select_answers", "validate_query_shape"]


def validate_query_shape(
    entity_set: object,
    attribute: object,
    outputs: Iterable[object],
    example: str,
) -> None:
    """Shared structural validation of a query's parts, with actionable
    messages — used by both :class:`ExploratoryQuery` and the public
    :class:`~repro.api.QuerySpec`, so the rules cannot drift apart.
    ``example`` shows the caller's own spelling in the error text."""
    for name, value in (("entity_set", entity_set), ("attribute", attribute)):
        if not isinstance(value, str) or not value.strip():
            raise QueryError(
                f"{name} must be a non-empty string, got {value!r}; "
                f"e.g. {example}"
            )
    outputs = tuple(outputs)
    if not outputs:
        raise QueryError(
            "a query needs at least one output set: the entity sets whose "
            "records form the rankable answer set, e.g. outputs=('GOTerm',)"
        )
    bad = [o for o in outputs if not isinstance(o, str) or not o.strip()]
    if bad:
        raise QueryError(
            f"output entity-set names must be non-empty strings, got "
            f"{sorted(map(repr, bad))}"
        )


def select_answers(
    graph, candidates: Iterable, outputs: Iterable[str]
) -> List:
    """The answer nodes among ``candidates``: those whose entity set is
    in ``outputs``. Raising here (not returning an empty answer set)
    keeps direct execution and the engine's answer views of a shared
    expansion failing identically."""
    wanted = frozenset(outputs)
    answers = [
        node for node in candidates if graph.data(node).entity_set in wanted
    ]
    if not answers:
        raise EmptyAnswerError(
            f"query reached no records in output sets {sorted(wanted)}",
            kind="no-answers",
        )
    return answers

#: graph-builder implementations: the batched one, and the scalar test
#: oracle ("reference" aliases "scalar")
BUILDERS = {
    "batched": BatchedEntityGraphBuilder,
    "scalar": EntityGraphBuilder,
    "reference": EntityGraphBuilder,
}


@dataclass(frozen=True)
class ExploratoryQuery:
    """``(P.attr = "value", {P1, ..., Pn})``."""

    entity_set: str
    attribute: str
    value: Hashable
    outputs: FrozenSet[str]

    def __init__(
        self,
        entity_set: str,
        attribute: str,
        value: Hashable,
        outputs: Iterable[str],
    ):
        object.__setattr__(self, "entity_set", entity_set)
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "outputs", frozenset(outputs))
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate eagerly, with actionable messages — a malformed
        query should fail here, not deep inside the graph builder."""
        validate_query_shape(
            self.entity_set,
            self.attribute,
            self.outputs,
            "ExploratoryQuery('EntrezProtein', 'name', 'ABCC8', "
            "outputs=('GOTerm',))",
        )

    @property
    def signature(self) -> Tuple[str, str, Hashable, FrozenSet[str]]:
        """Canonical, hashable identity of this query. The engine's query
        cache keys on the expansion's part of it alone (entity set,
        attribute and value), so output sets share one build."""
        return (self.entity_set, self.attribute, self.value, self.outputs)

    def execute(
        self, mediator: Mediator, builder: str = "batched"
    ) -> Tuple[QueryGraph, BuildStats]:
        """Run the query, returning the query graph and build statistics."""
        graph, source, stats = self.expand(mediator, builder)
        answers = select_answers(graph, graph.nodes(), self.outputs)
        return QueryGraph(graph, source, answers), stats

    def expand(
        self, mediator: Mediator, builder: str = "batched"
    ) -> Tuple[ProbabilisticEntityGraph, Hashable, BuildStats]:
        """The query's expansion before answer selection: the entity
        graph, its query node and the build statistics. The predicate
        alone decides it; ``outputs`` only pick answers among its
        records (see :func:`select_answers`)."""
        try:
            builder_cls = BUILDERS[builder]
        except KeyError:
            raise QueryError(
                f"unknown builder {builder!r}; choose from {sorted(BUILDERS)}"
            ) from None
        return self.expand_with(mediator, builder_cls(mediator))

    def expand_with(
        self,
        mediator: Mediator,
        graph_builder,
        find_records=None,
    ) -> Tuple[ProbabilisticEntityGraph, Hashable, BuildStats]:
        """:meth:`expand` through an already-constructed graph builder.

        ``find_records`` optionally replaces the seed probe
        (``mediator.find_records``) — together with the builder's fetch
        hooks this routes *every* storage access of a build through one
        overridable surface, which is what the incremental record/replay
        layer (:mod:`repro.integration.incremental`) plugs into.
        """
        plan = mediator.entity_plan(self.entity_set)
        probe = find_records or mediator.find_records
        seeds = probe(self.entity_set, self.attribute, self.value)
        if not seeds:
            raise EmptyAnswerError(
                f"no {self.entity_set!r} record has "
                f"{self.attribute} = {self.value!r}",
                kind="no-seeds",
            )

        query_node = graph_builder.add_query_node(self.value)

        seed_ids: List = []
        for record in seeds:
            seed_id = graph_builder.add_entity_node(
                self.entity_set, record[plan.key_column]
            )
            if seed_id is None:
                continue
            graph_builder.add_seed_edge(query_node, seed_id)
            seed_ids.append(seed_id)
        if not seed_ids:
            raise EmptyAnswerError(
                f"all seed records of {self.entity_set!r} were dangling",
                kind="dangling-seeds",
            )

        graph_builder.expand_from(seed_ids)
        return graph_builder.graph, query_node, graph_builder.stats
