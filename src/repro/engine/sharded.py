"""Scatter/gather execution over N child ranking engines — the one
execution path of every session.

One :class:`~repro.engine.ranking.RankingEngine` holds its compiled
graphs and query cache in one heap. A :class:`ShardedEngine` partitions
the answer space across N child engines — each wrapping a mediator view
over its partition's storage (see :mod:`repro.integration.partition`);
an unsharded session is N = 1, one shard owning every answer over the
session's own mediator — and executes every query scatter/gather:

1. **route** — :meth:`ShardRouter.relevant_shards` picks the shards a
   query can touch (a point lookup on a partitioned set's key column
   routes to exactly one shard; everything else fans out to all);
2. **scatter** — :func:`score_fragment` runs the query on every
   relevant shard's engine, on a thread pool, through the ordinary
   per-shard caches, and keeps the answers the shard *owns* (the
   partitioner is the single ownership oracle);
3. **gather** — :func:`merge_fragments` classifies the shard outcomes
   and unions the owned fragments, which then rank with the same
   deterministic tie-breaking the single engine uses, so rankings, rank
   intervals and tie groups are identical to the unsharded result.

The process-sharded engine (:mod:`repro.serving.engine`) is the
sibling of :class:`ShardedEngine` over the same :class:`ShardScatter`
base: its workers call the same :func:`score_fragment`, and the
supervisor decodes their replies into the same :class:`ShardFragment`
for the same :func:`merge_fragments`. In both modes a shard builds a
traversal once whatever the output sets: its engine's query cache keys
the expansion, and each output set ranks its own answer view of it.

Equivalence rests on the ancestor-closure rule enforced by
:func:`repro.integration.partition.partition_mediator`: only traversal
*sink* entity sets are physically partitioned, so every owned answer
sees exactly the ancestor subgraph the full graph would give it, and
every ranking method (they all score a node from its ancestors only)
produces bit-identical scores per shard. Stochastic requests (unseeded
or seeded Monte Carlo reliability) are reproducible run-to-run but
*not* numerically identical to the single-engine path — each shard
samples its own compiled graph; see ``docs/architecture.md``.

Shard failures surface as a clean :class:`~repro.errors.QueryError`
naming the shard; shards whose partition is simply empty (their
:class:`~repro.errors.EmptyAnswerError`) contribute empty fragments,
and only when *every* shard comes back empty is the single-engine
error re-raised.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from repro.api.spec import QuerySpec

from repro.core.graph import QueryGraph
from repro.engine.ranking import EngineStats, RankingEngine
from repro.errors import (
    EmptyAnswerError,
    QueryError,
    RankingError,
    SchemaError,
    ShardError,
)
from repro.integration.builder import BuildStats, NodePayload
from repro.integration.mediator import Mediator
from repro.integration.partition import (
    no_sink_sets_message,
    partition_mediator,
    sink_entity_sets,
    source_partition_message,
)
from repro.integration.query import ExploratoryQuery

__all__ = [
    "GatherResult",
    "HashPartitioner",
    "ShardFragment",
    "ShardRouter",
    "ShardScatter",
    "ShardedEngine",
    "merge_fragments",
    "score_fragment",
]

NodeId = Hashable

#: emptiness kinds ordered by execution progress; when every shard is
#: empty, the error that got furthest is the one the single engine
#: would have raised
_EMPTY_PRIORITY = {"no-answers": 2, "dangling-seeds": 1, "no-seeds": 0}


def _canonical_key_token(key: Hashable) -> str:
    """A stable text token with the property ``x == y`` ⇒ same token.

    Storage lookups and the gather merge compare keys by equality, so
    ownership must too: ``3``, ``3.0`` and ``True``/``1`` are the same
    probe to every other layer and must land on the same shard. Numeric
    keys therefore canonicalise through the integer form when exact;
    everything else keeps its ``repr`` (which separates ``3`` from
    ``'3'``, matching ``==``).
    """
    if isinstance(key, bool):
        return repr(int(key))
    if isinstance(key, int):
        return repr(key)
    if isinstance(key, float):
        if key.is_integer():
            return repr(int(key))
        return repr(key)
    return repr(key)


class HashPartitioner:
    """Stable hash partitioning of ``(entity_set, key)`` pairs.

    Ownership is derived from a keyed BLAKE2 digest of the entity set
    and the key's canonical token, so it is deterministic across
    processes and Python hash randomisation — a partition written to
    disk by one run is read back identically by the next — and
    consistent with key *equality* (``3.0`` owns the same shard as
    ``3``, like every storage probe treats them).
    """

    def __init__(self, shards: int):
        if not isinstance(shards, int) or shards < 1:
            raise QueryError(f"shard count must be a positive integer, got {shards!r}")
        self.shards = shards
        # ownership is probed per answer per request on the warm path;
        # memoising turns ~1 µs of hashing into a dict hit (the cache is
        # bounded by the live answer universe, which the partitioned
        # tables bound in turn)
        self._owners: Dict[Tuple[str, Hashable], int] = {}

    def owner(self, entity_set: str, key: Hashable) -> int:
        probe = (entity_set, key)
        cached = self._owners.get(probe)
        if cached is not None:
            return cached
        digest = hashlib.blake2b(
            f"{entity_set}\x00{_canonical_key_token(key)}".encode("utf-8"),
            digest_size=8,
        ).digest()
        shard = int.from_bytes(digest, "big") % self.shards
        self._owners[probe] = shard
        return shard

    def __repr__(self) -> str:
        return f"HashPartitioner(shards={self.shards})"


class ShardRouter:
    """Owns the shard layout: the per-shard mediators, the partitioner
    (the single ownership oracle for answers), and which entity sets
    are physically partitioned (with their key columns, for routing).
    """

    def __init__(
        self,
        mediators: Sequence[Mediator],
        partitioner,
        partitioned_sets: Optional[Mapping[str, str]] = None,
    ):
        self.mediators: List[Mediator] = list(mediators)
        if not self.mediators:
            raise QueryError("a shard router needs at least one mediator")
        if partitioner.shards != len(self.mediators):
            raise QueryError(
                f"partitioner covers {partitioner.shards} shards but "
                f"{len(self.mediators)} mediators were given"
            )
        self.partitioner = partitioner
        #: entity set -> key column, for the sets whose tables are
        #: physically split (used for point-lookup routing)
        self.partitioned_sets: Dict[str, str] = dict(partitioned_sets or {})

    @property
    def shards(self) -> int:
        return len(self.mediators)

    def owner(self, entity_set: str, key: Hashable) -> int:
        """The shard owning answer ``(entity_set, key)``."""
        return self.partitioner.owner(entity_set, key)

    def check_registrable(self, source) -> None:
        """Reject a source that would break the sink rule: a new
        relationship *out of* a physically partitioned entity set would
        make each shard follow links from only its own partition, so
        downstream answers would score against partial ancestor
        subgraphs."""
        message = source_partition_message(source, self.partitioned_sets)
        if message:
            raise SchemaError(message)

    def relevant_shards(self, query: Union[ExploratoryQuery, "QuerySpec"]) -> List[int]:
        """The shards ``query`` (or a spec) must be scattered to. A point
        lookup on a partitioned set's key column touches exactly its
        owner; any other query fans out to every shard."""
        key_column = self.partitioned_sets.get(query.entity_set)
        if key_column is not None and query.attribute == key_column:
            return [self.owner(query.entity_set, query.value)]
        return list(range(self.shards))

    @classmethod
    def partition(
        cls,
        mediator: Mediator,
        shards: int,
        partition_sets: Optional[Sequence[str]] = None,
    ) -> "ShardRouter":
        """Derive a router from one existing mediator by building
        per-shard partition views (see
        :func:`repro.integration.partition.partition_mediator`), whose
        answers a :class:`HashPartitioner` assigns to the shards.
        """
        if shards > 1 and not any(
            source.entities for source in mediator.sources
        ):
            raise QueryError(
                "a sharded session partitions its schema at open time, "
                "so the mediator needs its sources first; register "
                "them (or pass sources=) before opening with shards=N"
            )
        chosen = (
            sorted(sink_entity_sets(mediator))
            if partition_sets is None
            else list(partition_sets)
        )
        if shards > 1 and not chosen:
            raise SchemaError(no_sink_sets_message())
        partitioner = HashPartitioner(shards)
        mediators = partition_mediator(mediator, shards, partitioner, chosen)
        partitioned = {
            entity_set: mediator.entity_plan(entity_set).key_column
            for entity_set in chosen
        }
        return cls(mediators, partitioner, partitioned)


@dataclass
class ShardFragment:
    """One shard's answer to a scattered spec.

    Thread mode builds it in process; process mode builds it inside the
    worker and ships it as an RPC record the supervisor decodes back
    into this same type."""

    shard: int
    #: owned answers only — disjoint across fragments by construction
    scores: Dict[NodeId, float] = field(default_factory=dict)
    #: the owned answers' node payloads (entity set, key, label), as an
    #: RPC record ships them; in-process fragments read their graph
    payloads: Dict[NodeId, NodePayload] = field(default_factory=dict)
    build_stats: Optional[BuildStats] = None
    graph_cached: bool = False
    score_cached: bool = False
    build_seconds: float = 0.0
    rank_seconds: float = 0.0
    #: set when the shard's partition held no answers
    empty: Optional[EmptyAnswerError] = None
    #: the shard's query graph when it lives in this process
    graph: Optional[QueryGraph] = None
    #: the shard owns every answer: its graph is the whole query graph
    whole: bool = False
    #: the whole query graph's compiled fingerprint, once compiled
    fingerprint: Optional[str] = None

    def payload(self, node: NodeId) -> NodePayload:
        """The payload of an owned answer."""
        if self.graph is not None:
            return self.graph.graph.data(node)
        return self.payloads[node]


@dataclass
class GatherResult:
    """A merged scatter/gather execution: the union of the owned
    fragments' scores, with everything else read off the fragments
    when asked for."""

    method: str
    #: merged node -> score of the disjoint owned fragments (a lone
    #: populated fragment's dict, adopted as is)
    scores: Dict[NodeId, float]
    #: every relevant shard's fragment, empty partitions included
    fragments: List[ShardFragment]

    def copy(self) -> "GatherResult":
        """The same result over its own copy of the scores (the
        fragments are shared: no result hands them out)."""
        return GatherResult(self.method, dict(self.scores), self.fragments)

    @property
    def populated(self) -> List[ShardFragment]:
        return [f for f in self.fragments if f.empty is None]

    @cached_property
    def owner_shards(self) -> Dict[NodeId, int]:
        """node -> index of the shard that owns (and can explain) it."""
        return {node: f.shard for f in self.populated for node in f.scores}

    @cached_property
    def graphs(self) -> Dict[int, QueryGraph]:
        """shard -> its query graph, for shards that live in this
        process (empty when the graphs live in worker processes)."""
        return {f.shard: f.graph for f in self.populated if f.graph is not None}

    @property
    def whole(self) -> Optional[QueryGraph]:
        """The one whole query graph, when a single in-process shard
        owning every answer produced the result."""
        populated = self.populated
        return populated[0].graph if len(populated) == 1 and populated[0].whole else None

    @property
    def fingerprint(self) -> Optional[str]:
        """The whole query graph's compiled fingerprint, once compiled."""
        return self.populated[0].fingerprint if self.whole is not None else None

    @cached_property
    def build_stats(self) -> BuildStats:
        """Per-shard BuildStats summed (replicated intermediate layers
        are counted once per shard that materialised them)."""
        return aggregate_build_stats(
            [f.build_stats for f in self.populated if f.build_stats is not None]
        )

    @property
    def graph_cached(self) -> bool:
        """True only if *every* populated shard was served from its cache."""
        return all(f.graph_cached for f in self.populated)

    @property
    def score_cached(self) -> bool:
        return all(f.score_cached for f in self.populated)

    @property
    def build_seconds(self) -> float:
        return max(f.build_seconds for f in self.fragments)

    @property
    def rank_seconds(self) -> float:
        return max(f.rank_seconds for f in self.fragments)

    @property
    def nodes(self) -> int:
        """The whole query graph's node count, else the summed shard
        build statistics."""
        whole = self.whole
        return whole.graph.num_nodes if whole is not None else self.build_stats.nodes

    @property
    def edges(self) -> int:
        whole = self.whole
        return whole.graph.num_edges if whole is not None else self.build_stats.edges

    @cached_property
    def _by_shard(self) -> Dict[int, ShardFragment]:
        return {f.shard: f for f in self.fragments}

    def payload(self, node: NodeId) -> NodePayload:
        """The payload of an answer, from the fragment that owns it."""
        return self._by_shard[self.owner_shards[node]].payload(node)

    @property
    def payloads(self) -> Dict[NodeId, NodePayload]:
        """node -> payload of every answer."""
        return {node: self.payload(node) for node in self.scores}


def aggregate_build_stats(parts: Sequence[BuildStats]) -> BuildStats:
    """Field-wise sum of per-shard build statistics."""
    total = BuildStats()
    for stats in parts:
        total.nodes += stats.nodes
        total.edges += stats.edges
        total.dangling_links += stats.dangling_links
        for entity_set, count in stats.visited_entities.items():
            total.visited_entities[entity_set] = (
                total.visited_entities.get(entity_set, 0) + count
            )
    return total


def score_fragment(
    engine: RankingEngine, router: ShardRouter, shard: int, spec: "QuerySpec"
) -> ShardFragment:
    """Execute and rank ``spec`` on one shard's engine and keep the
    answers the shard owns (the partitioner is the single ownership
    oracle). An empty partition is a fragment, not a failure; any other
    error propagates to the scatter, which hands it to
    :func:`merge_fragments`."""
    started = time.perf_counter()
    try:
        qg, build_stats, graph_cached = engine.execute_with_stats(spec.to_exploratory())
    except EmptyAnswerError as exc:
        return ShardFragment(
            shard, build_seconds=time.perf_counter() - started, empty=exc
        )
    ranked_at = time.perf_counter()
    ranked, score_cached = engine.rank_with_stats(
        qg, spec.method, **spec.options.to_kwargs(spec.method, spec.seed)
    )
    # the shard of a one-shard router owns every answer: it adopts the
    # fresh score dict without an ownership probe and reports the whole
    # graph
    if router.shards == 1:
        fragment = ShardFragment(
            shard, ranked.scores, graph=qg, whole=True,
            fingerprint=engine.cached_fingerprint(qg),
        )
    else:
        fragment = ShardFragment(shard, graph=qg)
        owner = router.owner
        data = qg.graph.data
        for node in qg.targets:
            payload = data(node)
            if owner(payload.entity_set, payload.key) == shard:
                fragment.scores[node] = ranked.scores[node]
    fragment.build_stats, fragment.build_seconds = build_stats, ranked_at - started
    fragment.graph_cached, fragment.score_cached = graph_cached, score_cached
    fragment.rank_seconds = time.perf_counter() - ranked_at
    return fragment


#: one shard's scatter outcome: ``("ok", ShardFragment)``,
#: ``("error", exc)`` for an error the shard raised while executing,
#: or ``("transport", exc)`` when the shard could not be reached
Outcome = Tuple[str, object]


def merge_fragments(
    method: str, relevant: Sequence[int], outcomes: Sequence[Outcome]
) -> GatherResult:
    """Classify the scatter outcomes of ``relevant`` shards and merge
    the owned fragments into one result whose ordering, rank intervals
    and tie groups match the single-engine execution exactly.

    * a transport failure (a worker that bounded restarts did not
      cure) is infrastructure trouble and wins over everything else;
    * the same error on every shard is a query-level error (bad
      options, unknown attribute, ...): re-raised as the single engine
      would raise it; a *partial* error is wrapped in a
      :class:`~repro.errors.ShardError` naming the shard;
    * empty partitions contribute nothing; only when every shard is
      empty is the error that got furthest re-raised;
    * an answer owned by two shards means the partitioner is not a
      partition: :class:`~repro.errors.RankingError`.
    """
    fragments: List[ShardFragment] = []
    errors: List[Tuple[int, BaseException]] = []
    for shard, (tag, value) in zip(relevant, outcomes):
        if tag == "transport":
            raise value  # type: ignore[misc]
        if tag == "ok":
            fragments.append(value)  # type: ignore[arg-type]
        else:
            errors.append((shard, value))  # type: ignore[arg-type]
    if errors:
        first_shard, first_error = errors[0]
        deterministic = len(errors) == len(relevant) and all(
            type(err) is type(first_error) and str(err) == str(first_error)
            for _, err in errors
        )
        if deterministic:
            raise first_error
        raise ShardError(
            f"shard {first_shard} failed during scatter/gather: "
            f"{first_error}"
        ) from first_error

    populated = [f for f in fragments if f.empty is None]
    if len(populated) == 1:
        scores = populated[0].scores  # the whole answer: adopted, not copied
    else:
        scores = {}
        for fragment in populated:
            scores.update(fragment.scores)
        if len(scores) < sum(len(f.scores) for f in populated):
            raise RankingError(
                "an answer was gathered from two shards; the partitioner "
                "is not a partition"
            )
    if not scores:
        empties = [f.empty for f in fragments if f.empty is not None]
        if not empties:  # unreachable unless ownership is broken
            raise QueryError("no shard produced answers")
        # every shard's partition was empty: re-raise the error the
        # single engine would have produced — the one whose execution
        # got furthest
        raise max(empties, key=lambda exc: _EMPTY_PRIORITY[exc.kind])
    return GatherResult(method, scores, fragments)


class ShardScatter:
    """The scatter machinery both shard modes share: the relevant-shard
    routing, a persistent scatter pool, and the hand-off to
    :func:`merge_fragments`. Each mode supplies how one shard runs a
    spec (:meth:`_run`)."""

    #: how the shards run, as a session reports it
    mode = "thread"

    def __init__(self, router: ShardRouter):
        self.router = router
        # the scatter pool is created lazily and *reused* across
        # gathers: warm queries are N cache probes plus a merge, and
        # spawning threads per request would dwarf that
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def gather(self, spec: "QuerySpec") -> GatherResult:
        """Scatter ``spec`` to its relevant shards, rank each shard's
        graph, and merge the owned fragments (see
        :func:`merge_fragments`)."""
        relevant = self.router.relevant_shards(spec)
        outcomes = self._map(self._run, relevant, spec)
        return merge_fragments(spec.method, relevant, outcomes)

    def _run(self, shard: int, spec: "QuerySpec") -> Outcome:
        """One shard's outcome for ``spec``."""
        raise NotImplementedError

    def _map(self, run: Callable[[int, Any], Any], relevant: List[int], arg: Any) -> List[Any]:
        """``run(shard, arg)`` for every relevant shard, on the scatter
        pool when there are several."""
        self._check_open()
        if len(relevant) > 1:
            return list(self._scatter_pool().map(run, relevant, repeat(arg)))
        return [run(shard, arg) for shard in relevant]

    def shard_stats(self) -> List[EngineStats]:
        """Per-shard counter snapshots, shard order."""
        raise NotImplementedError

    def _check_open(self) -> None:
        if self._closed:
            raise RankingError(f"this {self.mode}-sharded engine is closed")

    def stats_snapshot(self) -> EngineStats:
        """The field-wise sum of every shard's counters."""
        return EngineStats.aggregate(self.shard_stats())

    def _scatter_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            self._check_open()  # under the lock: close() cannot race a new pool
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.router.shards,
                    thread_name_prefix="shard-scatter",
                )
            return self._pool

    def close(self) -> None:
        """Refuse further gathers, release the scatter pool and then
        the mode's own resources (:meth:`_release`). Idempotent."""
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self._release()

    def _release(self) -> None:
        """What closing frees beyond the scatter pool."""


class ShardedEngine(ShardScatter):
    """N child :class:`~repro.engine.ranking.RankingEngine`\\ s behind
    one scatter/gather execution surface.

    Every child engine gets the same ``engine_options`` (the
    ``RankingEngine`` keyword arguments, see
    :meth:`~repro.api.EngineConfig.engine_options`) over its own
    mediator from the router. The children's caches work unchanged — a
    warm sharded query is N dictionary probes plus one merge.
    """

    def __init__(
        self,
        router: ShardRouter,
        engine_options: Optional[Mapping[str, object]] = None,
    ):
        super().__init__(router)
        self.engines: List[RankingEngine] = [
            RankingEngine(mediator=mediator, **(engine_options or {}))
            for mediator in router.mediators
        ]

    @property
    def shards(self) -> int:
        return len(self.engines)

    def _run(self, shard: int, spec: "QuerySpec") -> Outcome:
        try:
            return "ok", score_fragment(self.engines[shard], self.router, shard, spec)
        except Exception as exc:  # classified by merge_fragments
            return "error", exc

    # -------------------------------------------------------------- #
    # stats and lifecycle (aggregated over the children)
    # -------------------------------------------------------------- #

    def shard_stats(self) -> List[EngineStats]:
        """Per-shard snapshots, shard order."""
        return [engine.stats_snapshot() for engine in self.engines]

    def reset_stats(self) -> None:
        for engine in self.engines:
            engine.reset_stats()

    def invalidate(self) -> None:
        for engine in self.engines:
            engine.invalidate()

    def _release(self) -> None:
        """Drop every child's caches."""
        self.invalidate()

    def __repr__(self) -> str:
        return (
            f"<ShardedEngine shards={self.shards} "
            f"partitioner={self.router.partitioner!r}>"
        )
