"""Rich result sets returned by :class:`~repro.api.Session`.

A :class:`ResultSet` wraps the raw score dict of a
:class:`~repro.core.ranker.RankedResult` into ranked
:class:`RankedEntity` records (label, entity set, score, tie-aware rank
interval), with pagination, tie groups, provenance paths back to the
seed records, and dict/JSON export — everything a UI or HTTP layer
needs without reaching into the graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from repro.api.spec import QuerySpec
    from repro.engine.sharded import GatherResult

from repro.core.graph import QueryGraph
from repro.core.paths import EvidencePath, enumerate_paths, explain_answer
from repro.core.ranker import RankedResult
from repro.errors import GraphError, ValidationError

__all__ = ["RankedEntity", "ResultPage", "ResultSet", "ShardedResultSet"]

NodeId = Hashable


@dataclass(frozen=True)
class RankedEntity:
    """One ranked answer.

    ``rank`` is the 1-based position in the deterministic display order;
    ``rank_lo``/``rank_hi`` bound the ranks the entity can occupy under
    random tie-breaking (the paper's ``21-22`` style intervals).
    """

    rank: int
    node: NodeId
    entity_set: Optional[str]
    key: Hashable
    label: str
    score: float
    rank_lo: int
    rank_hi: int

    @property
    def rank_interval(self) -> Tuple[int, int]:
        return (self.rank_lo, self.rank_hi)

    @property
    def expected_rank(self) -> float:
        """Expected rank under uniformly random tie-breaking."""
        return (self.rank_lo + self.rank_hi) / 2.0

    @property
    def is_tied(self) -> bool:
        return self.rank_lo != self.rank_hi

    def as_dict(self) -> Dict[str, object]:
        return {
            "rank": self.rank,
            "rank_interval": [self.rank_lo, self.rank_hi],
            "entity_set": self.entity_set,
            "key": self.key,
            "label": self.label,
            "score": self.score,
        }


@dataclass(frozen=True)
class ResultPage:
    """One page of a :class:`ResultSet` (1-based page numbers)."""

    number: int
    size: int
    total_results: int
    entities: Tuple[RankedEntity, ...]

    @property
    def total_pages(self) -> int:
        return max(1, -(-self.total_results // self.size))

    @property
    def has_previous(self) -> bool:
        return self.number > 1

    @property
    def has_next(self) -> bool:
        return self.number < self.total_pages

    def __len__(self) -> int:
        return len(self.entities)

    def __iter__(self) -> Iterator[RankedEntity]:
        return iter(self.entities)


class ResultSet:
    """The ranked answers of one executed query.

    Iterating yields :class:`RankedEntity` records in deterministic
    order (score descending, ties broken by node repr). The full answer
    set is always carried; ``spec.top_k`` only bounds the *default*
    window of :meth:`top` and :meth:`to_dict`.

    Example (ranking a hand-built two-answer graph)::

        >>> from repro import ProbabilisticEntityGraph, QueryGraph, open_session
        >>> g = ProbabilisticEntityGraph()
        >>> for node in ("s", "t1", "t2"):
        ...     _ = g.add_node(node)
        >>> _ = g.add_edge("s", "t1", q=0.9)
        >>> _ = g.add_edge("s", "t2", q=0.5)
        >>> from repro import RankingOptions
        >>> results = open_session().rank(
        ...     QueryGraph(g, "s", ["t1", "t2"]), "reliability",
        ...     options=RankingOptions(strategy="closed"))
        >>> [(e.rank, e.label, round(e.score, 2)) for e in results.top()]
        [(1, 't1', 0.9), (2, 't2', 0.5)]
        >>> results.page(1, size=1).has_next
        True
        >>> len(results)
        2
    """

    def __init__(
        self,
        ranked: RankedResult,
        graph: QueryGraph,
        spec: Optional["QuerySpec"] = None,
    ) -> None:
        self._ranked = ranked
        self._graph = graph
        self.spec = spec
        self.method = ranked.method
        # entity records are built lazily: score-only consumers (the
        # experiment sweeps read just .scores) skip the per-node work
        self._entities_cache: Optional[List[RankedEntity]] = None
        self._by_node_cache: Optional[Dict[NodeId, RankedEntity]] = None

    @property
    def _entities(self) -> List[RankedEntity]:
        if self._entities_cache is None:
            # tie semantics (exact score equality, deterministic order)
            # come from RankedResult.tie_groups() — one source of truth
            entities: List[RankedEntity] = []
            position = 0
            for group in self._ranked.tie_groups():
                lo, hi = position + 1, position + len(group)
                for node in group:
                    position += 1
                    payload = self._payload(node)
                    entities.append(
                        RankedEntity(
                            rank=position,
                            node=node,
                            entity_set=getattr(payload, "entity_set", None),
                            key=getattr(payload, "key", node),
                            label=str(getattr(payload, "label", node)),
                            score=self._ranked.scores[node],
                            rank_lo=lo,
                            rank_hi=hi,
                        )
                    )
            self._entities_cache = entities
        return self._entities_cache

    def _payload(self, node: NodeId) -> object:
        return self._graph.graph.data(node)

    @property
    def _by_node(self) -> Dict[NodeId, RankedEntity]:
        if self._by_node_cache is None:
            self._by_node_cache = {
                entity.node: entity for entity in self._entities
            }
        return self._by_node_cache

    # -------------------------------------------------------------- #
    # access
    # -------------------------------------------------------------- #

    @property
    def graph(self) -> QueryGraph:
        """The materialised query graph behind this result."""
        return self._graph

    @property
    def ranked(self) -> RankedResult:
        """The underlying low-level result (scores + rank accessors)."""
        return self._ranked

    @property
    def scores(self) -> Dict[NodeId, float]:
        """Raw node -> score mapping (what the metrics consume)."""
        return self._ranked.scores

    @property
    def entities(self) -> List[RankedEntity]:
        return list(self._entities)

    def entity(self, node: NodeId) -> RankedEntity:
        """The ranked entity of a graph node id."""
        try:
            return self._by_node[node]
        except KeyError:
            raise GraphError(
                f"{node!r} is not in this result set"
            ) from None

    def top(self, n: Optional[int] = None) -> List[RankedEntity]:
        """The best ``n`` entities (default: the spec's ``top_k``,
        or everything when neither is set)."""
        if n is None:
            n = getattr(self.spec, "top_k", None)
        elif not isinstance(n, int) or n < 1:
            raise ValidationError(
                f"top() takes a positive integer, got {n!r}"
            )
        return self._entities[:n] if n is not None else list(self._entities)

    def tie_groups(self) -> List[List[RankedEntity]]:
        """Maximal equal-score groups, best group first (the facade
        view of :meth:`RankedResult.tie_groups`)."""
        by_node = self._by_node
        return [
            [by_node[node] for node in group]
            for group in self._ranked.tie_groups()
        ]

    def page(self, number: int, size: int = 10) -> ResultPage:
        """Page ``number`` (1-based) of ``size`` entities.

        A page past the end is empty but still carries the totals, so a
        paginating client can recover; ``number < 1`` or ``size < 1``
        are errors.
        """
        if not isinstance(number, int) or number < 1:
            raise ValidationError(
                f"page number must be a positive integer, got {number!r}"
            )
        if not isinstance(size, int) or size < 1:
            raise ValidationError(
                f"page size must be a positive integer, got {size!r}"
            )
        start = (number - 1) * size
        return ResultPage(
            number=number,
            size=size,
            total_results=len(self._entities),
            entities=tuple(self._entities[start : start + size]),
        )

    def __len__(self) -> int:
        return len(self._entities)

    def __iter__(self) -> Iterator[RankedEntity]:
        return iter(self._entities)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[RankedEntity, List[RankedEntity]]:
        return self._entities[index]

    def __repr__(self) -> str:
        best = self._entities[0].label if self._entities else "-"
        return (
            f"<ResultSet method={self.method!r} n={len(self._entities)} "
            f"best={best!r}>"
        )

    # -------------------------------------------------------------- #
    # provenance
    # -------------------------------------------------------------- #

    def provenance(
        self, node: NodeId, top: int = 3, max_paths: int = 1000
    ) -> List[EvidencePath]:
        """The strongest evidence paths from the query node back to the
        seed records supporting ``node`` (accepts a node id or a
        :class:`RankedEntity`)."""
        if isinstance(node, RankedEntity):
            node = node.node
        return enumerate_paths(self._graph, node, max_paths=max_paths)[:top]

    def explain(self, node: NodeId, top: int = 3) -> str:
        """Human-readable provenance report for one answer."""
        if isinstance(node, RankedEntity):
            node = node.node
        return explain_answer(self._graph, node, top=top)

    # -------------------------------------------------------------- #
    # export
    # -------------------------------------------------------------- #

    def to_dict(self, limit: Optional[int] = None) -> Dict[str, object]:
        """A JSON-ready dict: the spec (when known), totals, and the
        top ``limit`` entities (default: the spec's ``top_k``)."""
        entities: Sequence[RankedEntity] = self.top(limit)
        data: Dict[str, object] = {
            "method": self.method,
            "total": len(self._entities),
            "returned": len(entities),
            "entities": [entity.as_dict() for entity in entities],
        }
        if self.spec is not None:
            data["spec"] = self.spec.to_dict()
        return data

    def to_json(self, limit: Optional[int] = None, **dumps_kwargs: object) -> str:
        dumps_kwargs.setdefault("default", str)
        return json.dumps(self.to_dict(limit), **dumps_kwargs)


class ShardedResultSet(ResultSet):
    """A :class:`ResultSet` gathered from shard fragments (thread or
    process mode).

    Scores, ordering, rank intervals, tie groups, pagination and export
    behave exactly as on a single-engine result (the merged score dict
    *is* the result); entity records come from each owning shard's
    payloads (its in-process graph, or the record its worker shipped).
    Provenance and explanations
    dispatch to the shard that owns each answer — its in-process graph,
    or an RPC to its worker process. By the sink-partitioning rule the
    owning shard holds the answer's complete ancestor subgraph, so the
    evidence paths equal the unsharded ones.

    There is no *single* materialised graph behind a gathered result,
    so :attr:`graph` raises with guidance; whole-graph consumers should
    iterate :attr:`shard_graphs` instead.
    """

    def __init__(
        self,
        gathered: "GatherResult",
        engine: object,
        spec: Optional["QuerySpec"] = None,
    ) -> None:
        self._gathered = gathered
        #: where answers without an in-process graph are explained
        #: (the process-sharded engine; unused in thread mode)
        self._engine = engine
        super().__init__(
            RankedResult(method=gathered.method, scores=gathered.scores),
            None,  # type: ignore[arg-type]
            spec=spec,
        )

    def _payload(self, node: NodeId) -> object:
        return self._gathered.payload(node)

    @property
    def graph(self) -> QueryGraph:
        """Not available on a gathered result — it was never one graph.

        Raising here (instead of returning a partial stand-in) keeps
        established ``results.graph`` consumers from silently working
        on one shard's subgraph; use :attr:`shard_graphs` for the
        per-shard materialisations.
        """
        raise GraphError(
            "a sharded result set has no single materialised graph; "
            "use .shard_graphs for the in-process shard query graphs "
            "(there are none when the shards run in worker processes), "
            "or .provenance()/.explain(), which dispatch to the owning "
            "shard automatically"
        )

    @property
    def shard_graphs(self) -> List[QueryGraph]:
        """The in-process query graphs of the shards that own answers
        (empty in process mode: those graphs live in the workers)."""
        graphs = self._gathered.graphs
        owning = sorted(set(self._gathered.owner_shards.values()))
        return [graphs[shard] for shard in owning if shard in graphs]

    @property
    def owner_shards(self) -> Dict[NodeId, int]:
        """Answer node -> shard index that owns (and can explain) it."""
        return dict(self._gathered.owner_shards)

    def _owner(self, node: NodeId) -> Tuple[NodeId, int]:
        if isinstance(node, RankedEntity):
            node = node.node
        try:
            return node, self._gathered.owner_shards[node]
        except KeyError:
            raise GraphError(f"{node!r} is not in this result set") from None

    def provenance(
        self, node: NodeId, top: int = 3, max_paths: int = 1000
    ) -> List[EvidencePath]:
        node, shard = self._owner(node)
        graph = self._gathered.graphs.get(shard)
        if graph is None:
            return self._engine.provenance(  # type: ignore[attr-defined]
                shard, self.spec, node, top=top, max_paths=max_paths
            )
        return enumerate_paths(graph, node, max_paths=max_paths)[:top]

    def explain(self, node: NodeId, top: int = 3) -> str:
        node, shard = self._owner(node)
        graph = self._gathered.graphs.get(shard)
        if graph is None:
            return self._engine.explain_answer(  # type: ignore[attr-defined]
                shard, self.spec, node, top=top
            )
        return explain_answer(graph, node, top=top)
