"""The batched ranking engine.

:class:`RankingEngine` is the serving layer the ROADMAP's production
north star asks for: it wraps a
:class:`~repro.integration.mediator.Mediator`, executes batches of
:class:`~repro.integration.query.ExploratoryQuery`\\ s, and ranks the
resulting query graphs through the compiled CSR kernels — compiling
each graph once and memoising per-method scores keyed by the compiled
graph's content fingerprint, so repeated or structurally identical
requests (the common case under heavy traffic) cost a dictionary probe
instead of a scoring pass.

Three caches cooperate:

* the **query cache** maps an exploratory query's traversal (entity
  set, attribute and value) to its materialised expansion plus
  the mediator's *epoch snapshot* at execution (bounded LRU). Output
  sets only pick answers among the records reached, so queries that
  differ only in them share one build: each output set gets its own
  answer view of the expansion, kept beside it so the view's compiled
  form and scores stay cached. The snapshot records a version
  per bound table, so a probe can ask the mediator precisely *which*
  tables changed (:meth:`~repro.integration.mediator.Mediator.changes_since`)
  instead of discarding the entry on any epoch movement. Changes to
  tables the cached build never read still count as hits; changes to
  tables it did read are replayed through the probe cache every build
  records (:mod:`repro.integration.incremental`) to *repair* the entry
  — a rebuild that re-probes storage only for dirty keys and patches
  every compiled view's CSR in place, bit-identical to a cold rebuild.
  Source registrations, confidence tuning and overflowed change logs
  still invalidate cold. With ``cache_graphs=False`` nothing is cached
  or repaired: every query re-materialises cold;
* the **compile cache** maps live ``QueryGraph`` objects to their
  :class:`~repro.core.compile.CompiledGraph` (weakly keyed, so graphs
  are evicted when the caller drops them). Beside it, a weakly keyed
  memo holds the compiled *reduced* graph that the reducing Monte Carlo
  reliability strategies sample, so a fresh seed pays only the kernel;
* the **score cache** maps ``(fingerprint, method, options)`` to
  computed scores, bounded LRU, each entry packed as a keys tuple plus
  one float64 array. Only deterministic requests are cached:
  Monte Carlo reliability is cacheable only when seeded with an
  integer, and options carrying stateful generators bypass the cache.

Mutating a query graph after ranking it through an engine invalidates
nothing automatically — compile once, then treat graphs as immutable
(or call :meth:`RankingEngine.invalidate`).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, fields
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.core.compile import CompiledGraph, compile_graph, patch_compiled
from repro.core.graph import ProbabilisticEntityGraph, QueryGraph
from repro.core.kernels import (
    COMPILED_METHODS,
    reduced_compiled,
    samples_reduced_graph,
)
from repro.core.ranker import RankedResult, resolve_method
from repro.core.reliability import STOCHASTIC_STRATEGIES
from repro.errors import EmptyAnswerError, RankingError
from repro.integration.builder import BuildStats
from repro.integration.incremental import ProbeCache, record_build, repair_build
from repro.integration.mediator import Mediator, MediatorEpoch
from repro.integration.query import ExploratoryQuery, select_answers
from repro.storage.changes import ChangeSet
from repro.storage.table import Table

__all__ = ["EngineStats", "RankingEngine", "SingleFlight"]

NodeId = Hashable

_T = TypeVar("_T")

Rankable = Union[QueryGraph, ExploratoryQuery]

#: reliability strategies whose scores are sampling-based (shared with
#: the public RankingOptions so seed/cache rules cannot diverge)
_STOCHASTIC_STRATEGIES = STOCHASTIC_STRATEGIES


def _hit_rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


@dataclass
class EngineStats:
    """Cache effectiveness counters (cumulative over the engine's life)."""

    compile_hits: int = 0
    compile_misses: int = 0
    score_hits: int = 0
    score_misses: int = 0
    graph_hits: int = 0
    graph_misses: int = 0
    #: cached graphs brought current by a delta replay instead of a cold
    #: rebuild — counted as neither a graph hit nor a graph miss
    graph_repairs: int = 0
    #: executions answered by awaiting an identical *in-flight*
    #: traversal (single-flight coalescing) — neither a hit nor a miss:
    #: no traversal ran for them, but the entry was not in the cache yet
    coalesced_queries: int = 0
    #: admissions that waited for an in-flight slot before executing
    queued_queries: int = 0
    #: admissions refused outright because the admission queue was full
    #: (each surfaced to the caller as an ``OverloadedError``)
    shed_queries: int = 0
    queries_executed: int = 0

    def reset(self) -> None:
        self.compile_hits = 0
        self.compile_misses = 0
        self.score_hits = 0
        self.score_misses = 0
        self.graph_hits = 0
        self.graph_misses = 0
        self.graph_repairs = 0
        self.coalesced_queries = 0
        self.queued_queries = 0
        self.shed_queries = 0
        self.queries_executed = 0

    # ------------------------------------------------------------ #
    # derived rates and ops-friendly views
    # ------------------------------------------------------------ #

    @property
    def graph_hit_rate(self) -> float:
        """Query-cache hit rate in [0, 1] (0.0 before any probe)."""
        return _hit_rate(self.graph_hits, self.graph_misses)

    @property
    def compile_hit_rate(self) -> float:
        return _hit_rate(self.compile_hits, self.compile_misses)

    @property
    def score_hit_rate(self) -> float:
        return _hit_rate(self.score_hits, self.score_misses)

    def snapshot(self) -> "EngineStats":
        """A point-in-time copy (for before/after deltas)."""
        return EngineStats(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )

    @classmethod
    def aggregate(cls, parts: Iterable["EngineStats"]) -> "EngineStats":
        """Field-wise sum — how a sharded engine reports the combined
        cache effectiveness of its children."""
        total = cls()
        for part in parts:
            for f in fields(cls):
                setattr(total, f.name, getattr(total, f.name) + getattr(part, f.name))
        return total

    def as_dict(self) -> Dict[str, object]:
        """Counters plus derived rates, ready for structured logging."""
        data: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        data["graph_hit_rate"] = self.graph_hit_rate
        data["compile_hit_rate"] = self.compile_hit_rate
        data["score_hit_rate"] = self.score_hit_rate
        return data

    def __str__(self) -> str:
        return (
            f"EngineStats(queries={self.queries_executed}, "
            f"graph {self.graph_hits}/{self.graph_hits + self.graph_misses} "
            f"({self.graph_hit_rate:.0%}), "
            f"compile {self.compile_hits}/"
            f"{self.compile_hits + self.compile_misses} "
            f"({self.compile_hit_rate:.0%}), "
            f"score {self.score_hits}/{self.score_hits + self.score_misses} "
            f"({self.score_hit_rate:.0%}))"
        )


class SingleFlight:
    """At most one pending execution per key, shared by identical callers.

    The first caller of a key *leads* and settles the key's
    :class:`concurrent.futures.Future`; identical callers *join* it. A
    caller joins only when its start token (the epochs of the mediators
    the execution reads) equals the leader's, so a request that started
    after a write committed never inherits an answer computed before it.

    A leader may settle with an answer to *retain*. The ``retain`` most
    recently used such answers stay beside the pending flights, each
    under its flight's token, and a caller with that token is handed
    the answer itself instead of a flight.
    """

    def __init__(self, retain: int = 0) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[Hashable, Tuple[object, "Future[Any]"]] = {}
        #: key -> (token, answer) of the retained settlements, LRU order
        self._settled: "OrderedDict[Hashable, Tuple[object, Any]]" = OrderedDict()
        self._retain = retain

    def join(
        self, key: Hashable, token: object, follow: bool = True
    ) -> Tuple[Any, Optional[bool]]:
        """The pending future for ``key`` and whether the caller leads
        it (a leader must :meth:`settle` it), or the answer retained
        under ``token`` and ``None``. A flight or answer with another
        token is not joined, and with ``follow`` off no pending flight
        is: the caller leads a new flight instead, which supersedes the
        pending one for later callers."""
        with self._lock:
            settled = self._settled.get(key)
            if settled is not None and settled[0] == token:
                self._settled.move_to_end(key)
                return settled[1], None
            flight = self._flights.get(key)
            if follow and flight is not None and flight[0] == token:
                return flight[1], False
            self._settled.pop(key, None)  # stale: its token moved on
            future: "Future[Any]" = Future()
            self._flights[key] = (token, future)
            return future, True

    def settle(
        self,
        key: Hashable,
        future: "Future[Any]",
        result: object = None,
        error: Optional[BaseException] = None,
        retain: object = None,
    ) -> None:
        """Evict the flight, *then* resolve it — a caller arriving after
        this starts afresh, or takes the ``retain`` answer kept under
        the flight's token — with ``result``, or ``error`` for every
        waiter."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None and flight[1] is future:
                del self._flights[key]
                if retain is not None:
                    self._settled[key] = (flight[0], retain)
                    self._settled.move_to_end(key)
                    while len(self._settled) > self._retain:
                        self._settled.popitem(last=False)
        if error is None:
            future.set_result(result)
        else:
            future.set_exception(error)

    def lead(self, key: Hashable, future: "Future[Any]", work: Callable[..., _T], *args: Any) -> _T:
        """Run the leader's ``work(*args)`` and settle the flight with
        its outcome."""
        try:
            result = work(*args)
        except BaseException as exc:
            self.settle(key, future, error=exc)
            raise
        self.settle(key, future, result)
        return result


@dataclass(eq=False)
class _Expansion:
    """One query-cache entry: a traversal's expansion, the mediator and
    the epoch snapshot it is known current at, and its answer views."""

    mediator: Mediator
    snapshot: MediatorEpoch
    graph: ProbabilisticEntityGraph
    source: NodeId
    #: stats of the original materialisation
    build_stats: BuildStats
    #: the build's recorded probes: they scope invalidation to the
    #: tables the build read and power delta repair
    probe_cache: ProbeCache
    #: output sets -> their answer view of ``graph`` (guarded by the
    #: engine lock)
    views: Dict[FrozenSet[str], QueryGraph]


#: one score-cache entry: answer keys plus their float64 scores
_ScoreEntry = Tuple[Tuple[NodeId, ...], np.ndarray]


def _pack_scores(scores: Mapping[NodeId, float]) -> _ScoreEntry:
    """Store ``scores`` as a keys tuple plus one float64 array — about a
    third of the memory of a dict of boxed floats. Every scoring path
    returns Python floats, which a float64 holds exactly, so
    :func:`_unpack_scores` restores the same keys, order and bits."""
    return tuple(scores), np.fromiter(
        scores.values(), dtype=np.float64, count=len(scores)
    )


def _unpack_scores(entry: _ScoreEntry) -> Dict[NodeId, float]:
    """A fresh scores dict from a cache entry (callers may mutate it)."""
    keys, values = entry
    return dict(zip(keys, values.tolist()))


def _samples_reduced(method: str, options: Mapping[str, object]) -> bool:
    """Whether the kernels sample the reduced graph for this
    request (the reducing Monte Carlo reliability strategies)."""
    return method == "reliability" and samples_reduced_graph(
        options.get("strategy", "auto"), options.get("reduce", True)
    )


def _consumes_ir(method: str, options: Mapping[str, object]) -> bool:
    """Whether the kernels actually read a precompiled IR of
    the graph itself for this request. Reliability's closed/exact
    strategies delegate to the dict-level solvers, and its reducing
    Monte Carlo strategies sample the *reduced* graph's IR instead."""
    if method != "reliability":
        return True
    if options.get("strategy", "auto") in ("closed", "exact"):
        return False
    return not _samples_reduced(method, options)


def rank(
    qg: QueryGraph,
    method: str,
    compiled: Optional[CompiledGraph],
    **options: object,
) -> RankedResult:
    """Score ``qg`` by the canonical ``method`` on the compiled CSR
    kernels, bit for bit what :func:`repro.core.ranker.rank` computes
    on them: the one scoring call of every engine."""
    scores = COMPILED_METHODS[method](qg, compiled=compiled, **options)
    return RankedResult(method=method, scores=dict(scores))


def _read_changes(
    changes: Mapping[Table, ChangeSet], probe_cache: ProbeCache
) -> Dict[Table, ChangeSet]:
    """The changes a cached build must answer for: the non-empty change
    sets of the tables it read. Net no-op windows, such as an insert
    coalesced away by its delete, are clean too."""
    deps = probe_cache.dep_tables()
    return {t: cs for t, cs in changes.items() if id(t) in deps and cs}


def _freeze_option(value: object) -> Optional[object]:
    """A hashable cache token for one option value, or ``None`` when the
    value makes the request uncacheable (mutable/stateful arguments)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        frozen = tuple(_freeze_option(v) for v in value)
        return None if any(v is None for v in frozen) else frozen
    return None


class RankingEngine:
    """Batched, cached ranking over a mediator's exploratory queries.

    Every request is scored by the compiled CSR kernels; the reference
    kernels are the test oracle behind :func:`repro.core.ranker.rank`.
    """

    def __init__(
        self,
        mediator: Optional[Mediator] = None,
        cache_scores: bool = True,
        max_cached_scores: int = 1024,
        cache_graphs: bool = True,
        max_cached_graphs: int = 256,
    ):
        self.mediator = mediator
        self.cache_scores = cache_scores
        self.max_cached_scores = max_cached_scores
        self.cache_graphs = cache_graphs
        self.max_cached_graphs = max_cached_graphs
        self.stats = EngineStats()
        #: bumped by every :meth:`invalidate`; a session's settled
        #: answers are keyed by it, so invalidating retires them too
        self.generation = 0
        # guards the three caches and the stats counters so concurrent
        # callers (Session.execute_many's thread pool) stay consistent;
        # the heavy work — graph materialisation, compilation, scoring —
        # always runs outside the lock
        self._lock = threading.RLock()
        self._compiled: "weakref.WeakKeyDictionary[QueryGraph, CompiledGraph]" = (
            weakref.WeakKeyDictionary()
        )
        #: live graph -> the CSR form of its reduced graph, which the
        #: reducing Monte Carlo strategies sample; built on first use so
        #: each request pays only the sampling kernel
        self._reduced: "weakref.WeakKeyDictionary[QueryGraph, CompiledGraph]" = (
            weakref.WeakKeyDictionary()
        )
        self._scores: "OrderedDict[Tuple, _ScoreEntry]" = OrderedDict()
        #: (entity set, attribute, value) -> the expansion
        self._graphs: "OrderedDict[Tuple, _Expansion]" = OrderedDict()
        #: query-cache key -> the one pending traversal for that key,
        #: tagged with its leader's epoch snapshot; identical queries
        #: that started at the same snapshot await it instead of
        #: re-traversing (single-flight). A flight lives only for one
        #: cold build and is evicted on completion or failure.
        self._inflight = SingleFlight()

    # -------------------------------------------------------------- #
    # query execution
    # -------------------------------------------------------------- #

    def execute(self, query: ExploratoryQuery) -> QueryGraph:
        """Run ``query`` through the engine's mediator.

        Expansions are cached by the query's traversal, so queries that
        differ only in output sets share one build. A
        repeated query against unchanged sources — or sources whose
        changes touch only tables the cached build never read — is a
        dictionary probe (``graph_hits``). Bounded changes to tables
        the build did read are *repaired* by a delta replay
        (``graph_repairs``) rather than rebuilt; source registrations,
        confidence tuning and overflowed change logs re-materialise
        cold (``graph_misses``).

        Identical queries arriving *while* a cold traversal that started
        at their mediator snapshot is in flight await it
        (``coalesced_queries``), so N concurrent identical cold queries
        cost one graph miss; one that started after a write runs its
        own. A failed traversal's error reaches every waiter, and the
        pending entry is evicted so the next request retries cold. Each
        caller selects its own answers, so an output set without any
        raises its ``EmptyAnswerError`` to that caller alone.
        """
        return self.execute_with_stats(query)[0]

    def execute_with_stats(
        self, query: ExploratoryQuery
    ) -> Tuple[QueryGraph, BuildStats, bool]:
        """Like :meth:`execute`, but also report *how* the graph came to
        be: its :class:`~repro.integration.builder.BuildStats` (from the
        original materialisation when served from cache) and whether the
        query cache supplied it."""
        if self.mediator is None:
            raise RankingError(
                "this engine has no mediator; construct it with one to "
                "execute exploratory queries"
            )
        if not self.cache_graphs:
            qg, build_stats = query.execute(self.mediator)
            with self._lock:
                self.stats.queries_executed += 1
            return qg, build_stats, False
        entry, graph_cached = self._expansion(query, self.mediator)
        return self._view(entry, query.outputs), entry.build_stats, graph_cached

    def _expansion(
        self, query: ExploratoryQuery, mediator: Mediator
    ) -> Tuple[_Expansion, bool]:
        """``query``'s traversal expanded over ``mediator`` and current,
        and whether the query cache (or an identical traversal in
        flight) supplied it."""
        # snapshot *before* any build reads storage: a mutation landing
        # mid-build is then still newer than the stored snapshot, so the
        # next probe re-examines it instead of missing it
        snapshot = mediator.epoch_snapshot()
        key = (query.entity_set, query.attribute, query.value)
        with self._lock:
            cached = self._graphs.get(key)
        # the entry must come from *this* mediator (the attribute is
        # public and reassignable); `changes_since` then reports None on
        # structural change, or exactly which bound tables moved since
        # the entry's snapshot
        changes = (
            mediator.changes_since(cached.snapshot)
            if cached is not None and cached.mediator is mediator
            else None
        )
        if changes is not None:
            relevant = _read_changes(changes, cached.probe_cache)
            if not relevant:
                with self._lock:
                    self._graph_hit(key, cached, snapshot)
                return cached, True
            if not any(cs.full for cs in relevant.values()):
                repaired = self._repair(key, cached, query, mediator, snapshot, relevant)
                if repaired is not None:
                    return repaired, False
        # cold: join an identical traversal that started at this same
        # snapshot (single-flight), or lead one. A traversal that began
        # before a write this caller saw committed is never joined.
        with self._lock:
            flight, leader = self._inflight.join(key, snapshot)
            if leader:
                self.stats.graph_misses += 1
                if cached is not None and self._graphs.get(key) is cached:
                    del self._graphs[key]  # stale: sources changed since execution
            else:
                self.stats.coalesced_queries += 1
        if not leader:
            return flight.result(), True

        def build() -> _Expansion:
            # cached before the flight is evicted: a request arriving
            # meanwhile either finds the cache entry or joins the flight
            entry = _Expansion(mediator, snapshot, *record_build(query, mediator), {})
            with self._lock:
                self.stats.queries_executed += 1
                self._store(key, entry)
            return entry

        return self._inflight.lead(key, flight, build), False

    def _store(self, key: Tuple, entry: _Expansion) -> None:
        """Cache ``entry`` as the most recent one (lock held)."""
        self._graphs[key] = entry
        self._graphs.move_to_end(key)
        while len(self._graphs) > self.max_cached_graphs:
            self._graphs.popitem(last=False)

    def _view(self, entry: _Expansion, outputs: FrozenSet[str]) -> QueryGraph:
        """The ``outputs`` answer view of ``entry``'s expansion, selected
        once per entry (the same filter, and the same empty-answer
        error, as :meth:`ExploratoryQuery.execute`)."""
        with self._lock:
            view = entry.views.get(outputs)
        if view is None:
            answers = select_answers(entry.graph, entry.graph.nodes(), outputs)
            with self._lock:
                view = entry.views.setdefault(
                    outputs, QueryGraph(entry.graph, entry.source, answers)
                )
        return view

    def _graph_hit(self, key: Tuple, cached: _Expansion, snapshot: MediatorEpoch) -> None:
        """Count a query-cache hit on ``cached`` and refresh its snapshot,
        so future probes diff the shortest change window (lock held)."""
        self.stats.graph_hits += 1
        if self._graphs.get(key) is cached:
            cached.snapshot = snapshot
            self._graphs.move_to_end(key)

    def _repair(
        self,
        key: Tuple,
        cached: _Expansion,
        query: ExploratoryQuery,
        mediator: Mediator,
        snapshot: MediatorEpoch,
        changes: Dict[Table, ChangeSet],
    ) -> Optional[_Expansion]:
        """Bring the cached entry current by delta replay, patching the
        compiled form of each of its compiled views; ``None`` means the
        caller should fall back to a cold rebuild."""
        try:
            graph, source, build_stats, fresh_cache, dirty_nodes = repair_build(
                query, mediator, cached.probe_cache, changes
            )
        except Exception:
            # a repair must never be load-bearing: drop the entry and
            # let the cold path rebuild (and raise) on its own terms
            with self._lock:
                if self._graphs.get(key) is cached:
                    del self._graphs[key]
            return None
        entry = _Expansion(mediator, snapshot, graph, source, build_stats, fresh_cache, {})
        with self._lock:
            compiled_views = [
                (outputs, self._compiled.get(view))
                for outputs, view in cached.views.items()
            ]
        patched = []
        for outputs, old_compiled in compiled_views:
            if old_compiled is None:
                continue  # selected again on first use
            try:
                view = self._view(entry, outputs)
            except EmptyAnswerError:
                continue  # the output sets lost every answer
            patched.append((view, patch_compiled(old_compiled, view, dirty_nodes)))
        with self._lock:
            self.stats.graph_repairs += 1
            self.stats.queries_executed += 1
            self._store(key, entry)
            for view, compiled in patched:
                # an unchanged-byte repair keeps the old fingerprint, so
                # the score cache keeps hitting across the mutation
                self._compiled.setdefault(view, compiled)
        return entry

    def execute_many(self, queries: Iterable[ExploratoryQuery]) -> List[QueryGraph]:
        """Execute a batch of exploratory queries (cache-aware)."""
        return [self.execute(query) for query in queries]

    def _resolve_graph(self, target: Rankable) -> QueryGraph:
        if isinstance(target, QueryGraph):
            return target
        if isinstance(target, ExploratoryQuery):
            return self.execute(target)
        raise RankingError(
            f"cannot rank {type(target).__name__}; expected a QueryGraph "
            f"or an ExploratoryQuery"
        )

    # -------------------------------------------------------------- #
    # compilation
    # -------------------------------------------------------------- #

    def reset_stats(self) -> None:
        """Zero the counters, consistently with in-flight increments."""
        with self._lock:
            self.stats.reset()

    def stats_snapshot(self) -> EngineStats:
        """A lock-consistent point-in-time copy of the counters."""
        with self._lock:
            return self.stats.snapshot()

    # hooks for the admission gate and the session's spec-keyed
    # single-flight: one EngineStats tells the whole serving story

    def note_coalesced(self, count: int = 1) -> None:
        """Record ``count`` requests that joined an identical one in the
        session's spec-keyed single-flight (every front door's)."""
        with self._lock:
            self.stats.coalesced_queries += count

    def note_hit(self) -> None:
        """Record a request the session answered from a settled flight:
        one query-cache hit and one score-cache hit, as a warm
        execution on this shard counts them."""
        with self._lock:
            self.stats.graph_hits += 1
            self.stats.score_hits += 1

    def note_queued(self, count: int = 1) -> None:
        """Record ``count`` admissions that waited for an in-flight
        slot before executing."""
        with self._lock:
            self.stats.queued_queries += count

    def note_shed(self, count: int = 1) -> None:
        """Record ``count`` requests refused because the admission queue
        was full (with the followers of a refused flight leader)."""
        with self._lock:
            self.stats.shed_queries += count

    def cached_fingerprint(self, qg: QueryGraph) -> Optional[str]:
        """The content fingerprint of ``qg``'s compiled form, if it has
        been compiled — without forcing a compilation."""
        with self._lock:
            compiled = self._compiled.get(qg)
        return compiled.fingerprint if compiled is not None else None

    def compile(self, qg: QueryGraph) -> CompiledGraph:
        """The CSR form of ``qg``, compiled at most once per live graph."""
        with self._lock:
            cached = self._compiled.get(qg)
            if cached is not None:
                self.stats.compile_hits += 1
                return cached
            self.stats.compile_misses += 1
        compiled = compile_graph(qg)
        with self._lock:
            # a concurrent compile of the same graph is idempotent; keep
            # one winner so every caller shares a single CompiledGraph
            return self._compiled.setdefault(qg, compiled)

    def _reduced_compiled(self, qg: QueryGraph) -> CompiledGraph:
        """The CSR form of ``qg``'s reduced graph, built at most once per
        live graph. Graphs are not mutated after build (a repair returns
        a new graph), so the memo is exactly what a cold call builds."""
        with self._lock:
            cached = self._reduced.get(qg)
        if cached is not None:
            return cached
        reduced = reduced_compiled(qg)
        with self._lock:
            return self._reduced.setdefault(qg, reduced)

    def invalidate(self, qg: Optional[QueryGraph] = None) -> None:
        """Drop cached state for ``qg`` (or everything when ``None``)."""
        with self._lock:
            self.generation += 1
            if qg is None:
                self._compiled = weakref.WeakKeyDictionary()
                self._reduced = weakref.WeakKeyDictionary()
                self._scores.clear()
                self._graphs.clear()
                return
            self._reduced.pop(qg, None)
            compiled = self._compiled.pop(qg, None)
            if compiled is not None:
                stale = [k for k in self._scores if k[0] == compiled.fingerprint]
                for key in stale:
                    del self._scores[key]
            stale_graphs = [
                k for k, entry in self._graphs.items() if entry.graph is qg.graph
            ]
            for key in stale_graphs:
                del self._graphs[key]

    # -------------------------------------------------------------- #
    # ranking
    # -------------------------------------------------------------- #

    def _cache_key(
        self,
        fingerprint: str,
        method: str,
        options: Mapping[str, object],
    ) -> Optional[Tuple]:
        if not self.cache_scores:
            return None
        frozen: List[Tuple[str, object]] = []
        for name in sorted(options):
            token = _freeze_option(options[name])
            if token is None and options[name] is not None:
                return None
            frozen.append((name, token))
        if method == "reliability":
            strategy = options.get("strategy", "auto")
            if strategy in _STOCHASTIC_STRATEGIES and not isinstance(
                options.get("rng"), int
            ):
                return None  # unseeded sampling: caching would freeze noise
        return (fingerprint, method, tuple(frozen))

    def rank(
        self,
        target: Rankable,
        method: str = "reliability",
        **options: object,
    ) -> RankedResult:
        """Rank one query graph (or execute-and-rank one query).

        Scores are served from the fingerprint-keyed cache when the
        request is deterministic and has been answered before.
        """
        return self.rank_with_stats(target, method, **options)[0]

    def rank_with_stats(
        self,
        target: Rankable,
        method: str = "reliability",
        **options: object,
    ) -> Tuple[RankedResult, bool]:
        """Like :meth:`rank`, but also report whether the scores came
        from the cache — per-call provenance that stays correct under
        concurrent callers (unlike diffing the global counters)."""
        qg = self._resolve_graph(target)
        canonical = resolve_method(method)
        # compile only when the request can use it: the kernels consume
        # the CSR form (except the reliability strategies that delegate
        # to dict-level solvers or sample the reduced graph), and the
        # score cache keys its fingerprint
        compiled: Optional[CompiledGraph] = None
        key: Optional[Tuple] = None
        if self.cache_scores or _consumes_ir(canonical, options):
            compiled = self.compile(qg)
            key = self._cache_key(compiled.fingerprint, canonical, options)
        if key is not None:
            with self._lock:
                cached = self._scores.get(key)
                if cached is not None:
                    self._scores.move_to_end(key)
                    self.stats.score_hits += 1
            if cached is not None:
                return RankedResult(
                    method=canonical, scores=_unpack_scores(cached)
                ), True
        with self._lock:
            self.stats.score_misses += 1
        if _samples_reduced(canonical, options):
            options = {**options, "reduced": self._reduced_compiled(qg)}
        result = rank(qg, canonical, compiled, **options)
        if key is not None:
            entry = _pack_scores(result.scores)
            with self._lock:
                self._scores[key] = entry
                while len(self._scores) > self.max_cached_scores:
                    self._scores.popitem(last=False)
        return result, False

    def rank_many(
        self,
        targets: Iterable[Rankable],
        method: str = "reliability",
        methods: Optional[Sequence[str]] = None,
        method_options: Optional[Mapping[str, Mapping[str, object]]] = None,
        **options: object,
    ) -> List:
        """Rank a batch.

        With a single ``method`` the result is a list of
        :class:`~repro.core.ranker.RankedResult`, one per target. With
        ``methods=[...]`` each target yields a dict mapping canonical
        method name to its result — the graph is compiled once and
        shared across all methods, and ``method_options`` supplies
        per-method overrides on top of the common ``options``.
        """
        per_method = {
            resolve_method(name): dict(opts)
            for name, opts in (method_options or {}).items()
        }
        results: List = []
        for target in targets:
            qg = self._resolve_graph(target)
            if methods is None:
                opts = dict(options)
                opts.update(per_method.get(resolve_method(method), {}))
                results.append(self.rank(qg, method, **opts))
            else:
                batch: Dict[str, RankedResult] = {}
                for name in methods:
                    canonical = resolve_method(name)
                    opts = dict(options)
                    opts.update(per_method.get(canonical, {}))
                    batch[canonical] = self.rank(qg, canonical, **opts)
                results.append(batch)
        return results
